type t = {
  title : string option;
  headers : string list;
  mutable rows : string list list; (* reversed *)
}

let create ?title headers = { title; headers; rows = [] }

let add_row t cells = t.rows <- cells :: t.rows

let ncols t = List.length t.headers

let pad_cells t cells =
  let n = ncols t in
  let len = List.length cells in
  if len >= n then Listx.take n cells else cells @ List.init (n - len) (fun _ -> "")

let column_widths t =
  let widths = Array.of_list (List.map String.length t.headers) in
  let account cells =
    List.iteri
      (fun i cell -> if i < Array.length widths then widths.(i) <- max widths.(i) (String.length cell))
      (pad_cells t cells)
  in
  List.iter account (List.rev t.rows);
  widths

(* Headers are centred, data cells left-aligned. *)
let fit width ~center cell =
  let len = String.length cell in
  if len >= width then cell
  else
    let pad = width - len in
    if not center then cell ^ String.make pad ' '
    else
      let left = pad / 2 in
      String.make left ' ' ^ cell ^ String.make (pad - left) ' '

let render t =
  let widths = column_widths t in
  let buf = Buffer.create 1024 in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line cells ~center =
    Buffer.add_char buf '|';
    List.iteri
      (fun i cell ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (fit widths.(i) ~center cell);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  (match t.title with
  | None -> ()
  | Some title ->
    Buffer.add_string buf title;
    Buffer.add_char buf '\n');
  rule ();
  line t.headers ~center:true;
  rule ();
  List.iter (fun cells -> line (pad_cells t cells) ~center:false) (List.rev t.rows);
  rule ();
  Buffer.contents buf
