type router = Bisect | Bisect_weighted | Token | Odd_even

type t = {
  threshold : float;
  monomorphism_limit : int;
  lookahead : bool;
  fine_tune_passes : int;
  leaf_override : bool;
  router : router;
  reuse_cap : float option;
  model : Qcp_circuit.Timing.model;
  commute_prepass : bool;
  balance_boundaries : bool;
  window : int;
  coarsen : bool;
  root_cap : int option;
  jobs : int;
  portfolio : bool;
}

let default ~threshold =
  {
    threshold;
    monomorphism_limit = 100;
    lookahead = true;
    fine_tune_passes = 3;
    leaf_override = true;
    router = Bisect;
    reuse_cap = Some 3.0;
    model = Qcp_circuit.Timing.Asap;
    commute_prepass = false;
    balance_boundaries = false;
    window = 1;
    coarsen = false;
    root_cap = None;
    jobs = Qcp_util.Task_pool.env_jobs ();
    portfolio = false;
  }

(* Canonical text form of every field, in declaration order: the serving
   layer's content-hash request keys concatenate this with the canonical
   environment and circuit texts, so two option records map to the same
   key exactly when they are structurally equal. *)
let canonical t =
  let b = Buffer.create 256 in
  let open_field name =
    Buffer.add_string b name;
    Buffer.add_char b '='
  in
  let close_field () = Buffer.add_char b ';' in
  let field name value =
    open_field name;
    Buffer.add_string b value;
    close_field ()
  in
  let int_field name v = field name (string_of_int v) in
  let float_field name v =
    open_field name;
    Printf.bprintf b "%h" v;
    close_field ()
  in
  let option_field name print = function
    | None -> field name "none"
    | Some v -> print name v
  in
  let flag name v = field name (if v then "1" else "0") in
  float_field "threshold" t.threshold;
  int_field "k" t.monomorphism_limit;
  flag "lookahead" t.lookahead;
  int_field "fine_tune" t.fine_tune_passes;
  flag "leaf_override" t.leaf_override;
  field "router"
    (match t.router with
    | Bisect -> "bisect"
    | Bisect_weighted -> "weighted"
    | Token -> "token"
    | Odd_even -> "odd-even");
  option_field "reuse_cap" float_field t.reuse_cap;
  field "model"
    (match t.model with
    | Qcp_circuit.Timing.Asap -> "asap"
    | Qcp_circuit.Timing.Sequential -> "sequential");
  flag "commute" t.commute_prepass;
  flag "balance" t.balance_boundaries;
  int_field "window" t.window;
  flag "coarsen" t.coarsen;
  option_field "root_cap" int_field t.root_cap;
  (* [jobs] is deliberately excluded: placements are bit-identical at any
     jobs value (the library's determinism contract), so a server may
     answer a jobs=4 request from a jobs=0 solve and vice versa. *)
  flag "portfolio" t.portfolio;
  Buffer.contents b

let fast ~threshold =
  {
    (default ~threshold) with
    monomorphism_limit = 8;
    lookahead = false;
    fine_tune_passes = 0;
  }

let scale ~threshold =
  {
    (fast ~threshold) with
    window = 64;
    coarsen = true;
    root_cap = Some 32;
  }
