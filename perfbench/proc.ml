(* Child processes, and line-delimited reads from pipes and sockets with
   deadlines, so a wedged child or daemon fails the run instead of hanging
   it. *)

let now = Unix.gettimeofday

(* Every child still running, so any exit path can stop and reap it. *)
let live : int list ref = ref []

let spawn args ~stdout =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid =
    Unix.create_process Sys.executable_name argv Unix.stdin stdout Unix.stderr
  in
  live := pid :: !live;
  pid

let rec reap pid =
  match Unix.waitpid [] pid with
  | _, status ->
    live := List.filter (fun p -> p <> pid) !live;
    status
  | exception Unix.Unix_error (EINTR, _, _) -> reap pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid : Unix.process_status))
    !live

let exited_ok = function Unix.WEXITED 0 -> true | _ -> false

(* Complete lines read from a file descriptor. *)
module Lines = struct
  type t = {
    fd : Unix.file_descr;
    partial : Buffer.t;  (* bytes after the last newline *)
    ready : string Queue.t;
    mutable eof : bool;
  }

  let create fd =
    { fd; partial = Buffer.create 4096; ready = Queue.create (); eof = false }

  let chunk = Bytes.create 65536

  (* One read of whatever is available. *)
  let fill t =
    match Unix.read t.fd chunk 0 (Bytes.length chunk) with
    | 0 -> t.eof <- true
    | n -> (
      match Bytes.index_from_opt chunk 0 '\n' with
      | Some first when first < n ->
        Buffer.add_subbytes t.partial chunk 0 n;
        let data = Buffer.contents t.partial in
        let last = String.rindex data '\n' in
        Buffer.clear t.partial;
        Buffer.add_substring t.partial data (last + 1)
          (String.length data - last - 1);
        List.iter
          (fun l -> if l <> "" then Queue.add l t.ready)
          (String.split_on_char '\n' (String.sub data 0 last))
      | Some _ | None -> Buffer.add_subbytes t.partial chunk 0 n)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> t.eof <- true

  let take t = Queue.take_opt t.ready

  (* The next line, waiting at most until [deadline]; [None] on end of
     file or timeout. *)
  let rec next t ~deadline =
    match Queue.take_opt t.ready with
    | Some l -> Some l
    | None when t.eof -> None
    | None ->
      let wait = deadline -. now () in
      if wait <= 0.0 then None
      else begin
        (match Unix.select [ t.fd ] [] [] wait with
        | [], _, _ -> ()
        | _ -> fill t
        | exception Unix.Unix_error (EINTR, _, _) -> ());
        next t ~deadline
      end
end

(* A client connection to the daemon: non-blocking, with its own output
   queue, so a single-threaded load generator never blocks on a write. *)
module Conn = struct
  type t = {
    lines : Lines.t;
    out : string Queue.t;
    mutable out_pos : int;  (* bytes of the head string already written *)
  }

  let fd t = t.lines.Lines.fd

  let connect path ~deadline =
    let rec attempt () =
      let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      match Unix.connect fd (ADDR_UNIX path) with
      | () ->
        Unix.set_nonblock fd;
        { lines = Lines.create fd; out = Queue.create (); out_pos = 0 }
      | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
        when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.01;
        attempt ()
      | exception e ->
        Unix.close fd;
        raise e
    in
    attempt ()

  let close t = try Unix.close (fd t) with Unix.Unix_error _ -> ()

  let pending_output t = not (Queue.is_empty t.out)

  let flush t =
    let rec go () =
      match Queue.peek_opt t.out with
      | None -> ()
      | Some s -> (
        let len = String.length s - t.out_pos in
        match Unix.write_substring (fd t) s t.out_pos len with
        | n when n = len ->
          ignore (Queue.take t.out : string);
          t.out_pos <- 0;
          go ()
        | n -> t.out_pos <- t.out_pos + n
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ())
    in
    go ()

  let send t line =
    Queue.add (line ^ "\n") t.out;
    flush t

  (* Wait until some connection is readable or writable (at most until
     [deadline]), then read and write what is possible.  Returns when the
     wait ended, the arrival time of whatever was read. *)
  let pump conns ~deadline =
    let wait = Float.max 0.0 (deadline -. now ()) in
    let reads = List.map fd conns in
    let writes = List.map fd (List.filter pending_output conns) in
    match Unix.select reads writes [] wait with
    | readable, writable, _ ->
      let t = now () in
      List.iter
        (fun c ->
          if List.memq (fd c) writable then flush c;
          if List.memq (fd c) readable then Lines.fill c.lines)
        conns;
      t
    | exception Unix.Unix_error (EINTR, _, _) -> now ()

  (* One synchronous round trip on an otherwise idle connection. *)
  let request t line ~timeout =
    send t line;
    let deadline = now () +. timeout in
    let rec wait () =
      match Lines.take t.lines with
      | Some l -> l
      | None ->
        if t.lines.Lines.eof then failwith "daemon closed the connection"
        else if now () >= deadline then failwith "daemon did not answer in time"
        else begin
          ignore (pump [ t ] ~deadline : float);
          wait ()
        end
    in
    wait ()
end
