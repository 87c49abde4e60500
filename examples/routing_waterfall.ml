(* The paper's "water and air" permutation routing (Section 5.2, Example 4 /
   Figure 3): bisect the interaction graph, then let misplaced tokens flow
   through the communication channel like water falling while air bubbles
   rise.

   Run with:  dune exec examples/routing_waterfall.exe *)

module Graph = Qcp_graph.Graph
module Separator = Qcp_graph.Separator
module Router = Qcp_route.Bisect_router
module Network = Qcp_route.Swap_network
module Environment = Qcp_env.Environment

let show_tokens env config =
  String.concat " "
    (List.map
       (fun v -> Environment.nucleus env config.(v))
       (Qcp_util.Listx.range (Array.length config)))

let () =
  let env = Qcp_env.Molecules.trans_crotonic_acid in
  let bonds = Environment.adjacency env ~threshold:100.0 in
  Format.printf "trans-crotonic acid bond graph:@.";
  List.iter
    (fun (u, v) ->
      Format.printf "  %s -- %s@." (Environment.nucleus env u)
        (Environment.nucleus env v))
    (Graph.edges bonds);

  (* The divide step: a balanced connected bisection (the paper's "cut 1"
     splits the molecule 4 + 3). *)
  (match Separator.bisect bonds (Array.init (Graph.n bonds) Fun.id) with
  | Some (small, large) ->
    let names side =
      String.concat " " (Array.to_list (Array.map (Environment.nucleus env) side))
    in
    Format.printf "@.cut 1: {%s} | {%s}  (s = %.2f; molecules achieve s = 1/2)@."
      (names small) (names large)
      (Separator.ratio small large)
  | None -> ());

  (* The paper's Example 4 permutation. *)
  let perm = [| 1; 3; 4; 6; 5; 2; 0 |] in
  Format.printf "@.target:";
  Array.iteri
    (fun src dst ->
      Format.printf " %s->%s" (Environment.nucleus env src)
        (Environment.nucleus env dst))
    perm;
  Format.printf "@.@.";

  let network = Router.route bonds ~perm in
  let config = ref (Array.init (Graph.n bonds) (fun v -> v)) in
  Format.printf "tokens: %s@." (show_tokens env !config);
  List.iteri
    (fun i level ->
      config := Network.apply [ level ] !config;
      Format.printf "level %d (%d parallel swaps): %s@." (i + 1)
        (List.length level) (show_tokens env !config))
    network;
  Format.printf "@.%d levels, %d swaps; analytic bound for this graph: %d levels@."
    (Network.depth network) (Network.swap_count network)
    (Router.depth_upper_bound bonds);
  Format.printf "network realizes the permutation: %b@."
    (Network.realizes network ~perm);

  (* The same instance on a 16-vertex chain to show O(n) scaling of the
     divide-and-conquer router against the naive sequential baseline. *)
  Format.printf "@.chain-16 full reversal:@.";
  let chain = Qcp_graph.Generators.path_graph 16 in
  let reversal = Array.init 16 (fun i -> 15 - i) in
  let fast = Router.route chain ~perm:reversal in
  let slow = Qcp_route.Token_router.route chain ~perm:reversal in
  Format.printf "  bisection router: %d levels (%d swaps)@." (Network.depth fast)
    (Network.swap_count fast);
  Format.printf "  naive router    : %d levels (%d swaps)@." (Network.depth slow)
    (Network.swap_count slow)
