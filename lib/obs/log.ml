type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type field =
  | Str of string
  | Num of float
  | Int of int
  | Bool of bool
  | Obj of (string * field) list

type sink = string -> unit

(* [off] encodes "disabled" as a severity no level reaches, so the armed
   check on the hot path is exactly one atomic load and one integer
   compare — the same discipline as {!Metrics.enabled}. *)
let off = 100

let threshold = Atomic.make off

let set_level = function
  | None -> Atomic.set threshold off
  | Some l -> Atomic.set threshold (severity l)

let level () =
  match Atomic.get threshold with
  | 0 -> Some Debug
  | 1 -> Some Info
  | 2 -> Some Warn
  | 3 -> Some Error
  | _ -> None

let seq = Atomic.make 0

let t0 = ref (Unix.gettimeofday ())

(* The sink is called with one complete rendered line (no newline) under
   [sink_lock], so concurrent domains never interleave bytes of two
   events. *)
let sink_lock = Mutex.create ()

let stderr_sink line = Printf.eprintf "%s\n%!" line

let channel_sink oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let buffer_sink buf line =
  Buffer.add_string buf line;
  Buffer.add_char buf '\n'

let file_sink path =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
  channel_sink oc

let sink = ref stderr_sink

let set_sink s = Mutex.protect sink_lock (fun () -> sink := s)

let reset () =
  Atomic.set threshold off;
  Atomic.set seq 0;
  t0 := Unix.gettimeofday ();
  set_sink stderr_sink

(* Rendering is zero-dependency (this library sits below Qcp_util): the
   escaper mirrors {!Qcp_util.Json} exactly, so every emitted line parses
   back through it — the access-log round-trip contract. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_number buf v =
  if Float.is_nan v then Buffer.add_string buf "0"
  else if v = Float.infinity then Buffer.add_string buf "1e308"
  else if v = Float.neg_infinity then Buffer.add_string buf "-1e308"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string buf (string_of_int (int_of_float v))
  else Buffer.add_string buf (Printf.sprintf "%.6g" v)

let rec add_field buf = function
  | Str s -> add_escaped buf s
  | Num v -> add_number buf v
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_escaped buf name;
        Buffer.add_char buf ':';
        add_field buf v)
      fields;
    Buffer.add_char buf '}'

let render ~ts ~mono ~seq l event fields =
  let buf = Buffer.create 160 in
  Buffer.add_string buf "{\"ts\":";
  Buffer.add_string buf (Printf.sprintf "%.6f" ts);
  Buffer.add_string buf ",\"mono\":";
  Buffer.add_string buf (Printf.sprintf "%.6f" mono);
  Buffer.add_string buf ",\"seq\":";
  Buffer.add_string buf (string_of_int seq);
  Buffer.add_string buf ",\"level\":";
  add_escaped buf (level_name l);
  Buffer.add_string buf ",\"event\":";
  add_escaped buf event;
  List.iter
    (fun (name, v) ->
      Buffer.add_char buf ',';
      add_escaped buf name;
      Buffer.add_char buf ':';
      add_field buf v)
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let log l event fields =
  if severity l >= Atomic.get threshold then begin
    let fields = fields () in
    let ts = Unix.gettimeofday () in
    let mono = Float.max 0.0 (ts -. !t0) in
    let n = Atomic.fetch_and_add seq 1 in
    let line = render ~ts ~mono ~seq:n l event fields in
    Mutex.protect sink_lock (fun () -> !sink line)
  end

let debug event fields = log Debug event fields

let info event fields = log Info event fields

let warn event fields = log Warn event fields

let error event fields = log Error event fields
