(* Unit and property tests for qcp_util: RNG determinism, list helpers,
   decimal bignums and the table renderer. *)

module Rng = Qcp_util.Rng
module Listx = Qcp_util.Listx
module Bigdec = Qcp_util.Bigdec
module Text_table = Qcp_util.Text_table

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  Alcotest.(check bool) "streams diverge" true (xa <> xb)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_coverage () =
  let rng = Rng.create 11 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all (fun b -> b) seen)

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_permutation () =
  let rng = Rng.create 5 in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_range () =
  Alcotest.(check (list int)) "range 4" [ 0; 1; 2; 3 ] (Listx.range 4);
  Alcotest.(check (list int)) "range 0" [] (Listx.range 0);
  Alcotest.(check (list int)) "range_from" [ 3; 4 ] (Listx.range_from 3 5);
  Alcotest.(check (list int)) "range_from empty" [] (Listx.range_from 5 5)

let test_take_drop () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take long" [ 1; 2; 3 ] (Listx.take 9 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Listx.drop 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop all" [] (Listx.drop 9 [ 1; 2; 3 ])

let test_min_max_by () =
  let key x = float_of_int (x mod 10) in
  Alcotest.(check (option int)) "min_by" (Some 30) (Listx.min_by key [ 42; 30; 17 ]);
  Alcotest.(check (option int)) "min_by empty" None (Listx.min_by key []);
  (* min_by_key returns the winner *and* its score, evaluating the key
     exactly once per element; ties keep the earliest element. *)
  Alcotest.(check (option (pair int (float 0.0))))
    "min_by_key" (Some (30, 0.0)) (Listx.min_by_key key [ 42; 30; 17 ]);
  Alcotest.(check (option (pair int (float 0.0)))) "min_by_key empty" None
    (Listx.min_by_key key []);
  let calls = ref 0 in
  let counting x = incr calls; key x in
  (match Listx.min_by_key counting [ 42; 30; 17; 30 ] with
  | Some (winner, score) ->
    Alcotest.(check int) "earliest tie" 30 winner;
    Alcotest.(check (float 0.0)) "score" 0.0 score
  | None -> Alcotest.fail "expected a winner");
  Alcotest.(check int) "one evaluation per element" 4 !calls

let test_pairs () =
  Alcotest.(check int) "pairs count" 6 (List.length (Listx.pairs [ 1; 2; 3; 4 ]));
  Alcotest.(check (list (pair int int))) "pairs 3" [ (1, 2); (1, 3); (2, 3) ]
    (Listx.pairs [ 1; 2; 3 ])

let test_bigdec_small () =
  Alcotest.(check string) "zero" "0" (Bigdec.to_string (Bigdec.of_int 0));
  Alcotest.(check string) "small" "123456789012" (Bigdec.to_string (Bigdec.of_int 123456789012));
  Alcotest.(check (option int)) "roundtrip" (Some 99) (Bigdec.to_int_opt (Bigdec.of_int 99))

let test_bigdec_mul () =
  let v = Bigdec.mul_int (Bigdec.of_int 999_999_999) 999_999_999 in
  Alcotest.(check string) "large square" "999999998000000001" (Bigdec.to_string v)

let test_bigdec_factorial_digits () =
  (* The paper's footnote 4: the exhaustive search space for 512 qubits is a
     1167-digit number. *)
  let space = Bigdec.falling_factorial 512 512 in
  Alcotest.(check int) "512! has 1167 digits" 1167 (Bigdec.digits space)

let test_bigdec_table2 () =
  (* Table 2: placing 10 qubits into 12 nuclei has 239,500,800 options. *)
  Alcotest.(check (option int)) "12!/2!" (Some 239_500_800)
    (Bigdec.to_int_opt (Bigdec.falling_factorial 12 10));
  Alcotest.(check (option int)) "3!" (Some 6)
    (Bigdec.to_int_opt (Bigdec.falling_factorial 3 3));
  Alcotest.(check (option int)) "7!/2!" (Some 2520)
    (Bigdec.to_int_opt (Bigdec.falling_factorial 7 5))

let test_table_render () =
  let t = Text_table.create ~title:"demo" [ "a"; "b" ] in
  Text_table.add_row t [ "1"; "22" ];
  Text_table.add_row t [ "333" ];
  let rendered = Text_table.render t in
  Alcotest.(check bool) "has title" true
    (String.length rendered > 0 && String.sub rendered 0 4 = "demo");
  Alcotest.(check bool) "row padding works" true
    (String.length rendered > 20)

let qcheck_bigdec_matches_int =
  QCheck.Test.make ~name:"bigdec falling factorial matches int arithmetic"
    ~count:200
    QCheck.(pair (int_range 0 15) (int_range 0 15))
    (fun (m, n) ->
      let n = min m n in
      let expected =
        let rec loop acc i = if i >= n then acc else loop (acc * (m - i)) (i + 1) in
        loop 1 0
      in
      Qcp_util.Bigdec.to_int_opt (Qcp_util.Bigdec.falling_factorial m n) = Some expected)

let qcheck_shuffle_preserves_elements =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, items) ->
      let rng = Rng.create seed in
      let arr = Array.of_list items in
      Rng.shuffle_in_place rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare items)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng int range" `Quick test_rng_int_range;
    Alcotest.test_case "rng int coverage" `Quick test_rng_int_coverage;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng permutation" `Quick test_rng_permutation;
    Alcotest.test_case "listx range" `Quick test_range;
    Alcotest.test_case "listx take/drop" `Quick test_take_drop;
    Alcotest.test_case "listx min/max_by" `Quick test_min_max_by;
    Alcotest.test_case "listx pairs" `Quick test_pairs;
    Alcotest.test_case "bigdec small" `Quick test_bigdec_small;
    Alcotest.test_case "bigdec mul" `Quick test_bigdec_mul;
    Alcotest.test_case "bigdec 512! digits (footnote 4)" `Quick test_bigdec_factorial_digits;
    Alcotest.test_case "bigdec table-2 search spaces" `Quick test_bigdec_table2;
    Alcotest.test_case "table render" `Quick test_table_render;
    QCheck_alcotest.to_alcotest qcheck_bigdec_matches_int;
    QCheck_alcotest.to_alcotest qcheck_shuffle_preserves_elements;
  ]
