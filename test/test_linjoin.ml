(* Tests for the LINQ-style linear join and the cost-based physical join
   selection: the linear and quadratic operators must be value-identical
   to the sort-based join-aggregation and to the plaintext reference
   across all three protocols and every planner-reachable variant
   (inner / inner+copy / composite-key / semi / anti / duplicates), the
   selection must respect applicability and the ORQ_JOIN override, and
   on concrete join shapes the predicted-cheapest operator must be the
   measured-cheapest one. *)

open Orq_proto
open Orq_core
open Orq_plaintext
module Comm = Orq_net.Comm

let kinds = Ctx.all_kinds
let rows_t = Alcotest.(list (list int))
let for_all_kinds f = List.iter (fun k -> f (Ctx.create ~seed:51 k)) kinds

let with_mode m f =
  let old = Joincost.mode () in
  Joincost.set_mode m;
  Fun.protect ~finally:(fun () -> Joincost.set_mode old) f

let forced op f = with_mode (Joincost.Force op) f

(* ---------------- fixtures ---------------- *)

let customers ctx =
  Table.create ctx "customers"
    [
      ("CustKey", 8, [| 1; 2; 3; 4; 7 |]);
      ("Nation", 4, [| 3; 1; 3; 2; 1 |]);
    ]

let orders ctx =
  Table.create ctx "orders"
    [
      ("CustKey", 8, [| 2; 1; 2; 5; 3; 2 |]);
      ("Price", 16, [| 10; 50; 20; 99; 70; 30 |]);
    ]

let p_customers () =
  Ptable.of_cols
    [ ("CustKey", [| 1; 2; 3; 4; 7 |]); ("Nation", [| 3; 1; 3; 2; 1 |]) ]

let p_orders () =
  Ptable.of_cols
    [
      ("CustKey", [| 2; 1; 2; 5; 3; 2 |]);
      ("Price", [| 10; 50; 20; 99; 70; 30 |]);
    ]

let join_cols = [ "CustKey"; "Nation"; "Price" ]

(* ---------------- value identity: inner ---------------- *)

let test_linear_inner_vs_sort_and_plaintext () =
  for_all_kinds (fun ctx ->
      let reference =
        Ptable.rows_sorted
          (Ptable.inner_join (p_customers ()) (p_orders ()) ~on:[ "CustKey" ])
          join_cols
      in
      let run op =
        forced op (fun () ->
            let j =
              Dataflow.inner_join (customers ctx) (orders ctx)
                ~on:[ "CustKey" ] ~copy:[ "Nation" ]
            in
            Table.valid_rows_sorted j join_cols)
      in
      Alcotest.(check rows_t) "linear vs plaintext" reference (run Joincost.Linear);
      Alcotest.(check rows_t) "sort vs plaintext" reference (run Joincost.Sort);
      Alcotest.(check rows_t) "quad vs plaintext" reference (run Joincost.Quad))

let test_linear_inner_no_copy () =
  for_all_kinds (fun ctx ->
      let run op =
        forced op (fun () ->
            Table.valid_rows_sorted
              (Dataflow.inner_join (customers ctx) (orders ctx)
                 ~on:[ "CustKey" ])
              [ "CustKey"; "Price" ])
      in
      Alcotest.(check rows_t) "no-copy inner" (run Joincost.Sort)
        (run Joincost.Linear))

let test_linear_respects_validity () =
  for_all_kinds (fun ctx ->
      let run op =
        forced op (fun () ->
            let c =
              Dataflow.filter (customers ctx) Expr.(col "CustKey" <>. const 2)
            in
            let o =
              Dataflow.filter (orders ctx) Expr.(col "Price" <. const 70)
            in
            let j = Dataflow.inner_join c o ~on:[ "CustKey" ] ~copy:[ "Nation" ] in
            Alcotest.(check int) "physical |R| rows" 6 (Table.nrows j);
            Table.valid_rows_sorted j join_cols)
      in
      Alcotest.(check rows_t) "invalid rows never match"
        (run Joincost.Sort) (run Joincost.Linear))

(* Signed columns (differences from a map) keep their sign through every
   join operator, on the probe side and in the copied build columns:
   ORDER BY reads the flag. Unsigned, the negative rows would sort last. *)
let test_signed_columns_keep_sign () =
  for_all_kinds (fun ctx ->
      let c = Dataflow.map (customers ctx) ~dst:"Adj" Expr.(col "Nation" -! const 2) in
      let o = Dataflow.map (orders ctx) ~dst:"Delta" Expr.(col "Price" -! const 60) in
      let first2 op order =
        forced op (fun () ->
            let j = Dataflow.inner_join c o ~on:[ "CustKey" ] ~copy:[ "Adj" ] in
            Table.valid_rows_sorted
              (Dataflow.limit (Dataflow.order_by j order) 2)
              [ "CustKey"; "Price" ])
      in
      List.iter
        (fun op ->
          let label = Joincost.op_label op in
          (* Delta = -50, -40 on customer 2's two cheapest orders *)
          Alcotest.(check rows_t) (label ^ ": signed probe column")
            [ [ 2; 10 ]; [ 2; 20 ] ]
            (first2 op [ ("Delta", Dataflow.Asc) ]);
          (* Adj = -1 only for customer 2 (Nation 1) *)
          Alcotest.(check rows_t) (label ^ ": signed copy column")
            [ [ 2; 10 ]; [ 2; 20 ] ]
            (first2 op [ ("Adj", Dataflow.Asc); ("Price", Dataflow.Asc) ]))
        [ Joincost.Sort; Joincost.Linear; Joincost.Quad ])

let test_linear_composite_key () =
  for_all_kinds (fun ctx ->
      let l =
        Table.create ctx "l"
          [
            ("A", 6, [| 1; 1; 2; 3 |]);
            ("B", 5, [| 1; 2; 1; 9 |]);
            ("X", 8, [| 11; 12; 13; 14 |]);
          ]
      and r =
        Table.create ctx "r"
          [
            ("A", 6, [| 1; 1; 2; 2; 3; 1 |]);
            ("B", 5, [| 2; 1; 1; 2; 9; 1 |]);
            ("Y", 8, [| 1; 2; 3; 4; 5; 6 |]);
          ]
      in
      let run op =
        forced op (fun () ->
            Table.valid_rows_sorted
              (Dataflow.inner_join l r ~on:[ "A"; "B" ] ~copy:[ "X" ])
              [ "A"; "B"; "X"; "Y" ])
      in
      Alcotest.(check rows_t) "two-column key" (run Joincost.Sort)
        (run Joincost.Linear))

(* ---------------- value identity: semi / anti ---------------- *)

let test_linear_semi_anti () =
  for_all_kinds (fun ctx ->
      let run sel op =
        forced op (fun () ->
            Table.valid_rows_sorted
              (sel (customers ctx) (orders ctx) ~on:[ "CustKey" ])
              [ "CustKey"; "Nation" ])
      in
      let semi l r ~on = Dataflow.semi_join l r ~on
      and anti l r ~on = Dataflow.anti_join l r ~on in
      Alcotest.(check rows_t) "semi" (run semi Joincost.Sort)
        (run semi Joincost.Linear);
      Alcotest.(check rows_t) "anti" (run anti Joincost.Sort)
        (run anti Joincost.Linear))

let test_linear_semi_anti_duplicates () =
  for_all_kinds (fun ctx ->
      let l =
        Table.create ctx "l" [ ("K", 6, [| 1; 1; 2; 4; 4 |]) ]
      and r = Table.create ctx "r" [ ("K", 6, [| 1; 1; 3; 4 |]) ] in
      let run sel op =
        forced op (fun () ->
            Table.valid_rows_sorted (sel l r ~on:[ "K" ]) [ "K" ])
      in
      let semi l r ~on = Dataflow.semi_join l r ~on
      and anti l r ~on = Dataflow.anti_join l r ~on in
      Alcotest.(check rows_t) "semi, dup both sides" (run semi Joincost.Sort)
        (run semi Joincost.Linear);
      Alcotest.(check rows_t) "anti, dup both sides" (run anti Joincost.Sort)
        (run anti Joincost.Linear))

(* ---------------- applicability and override ---------------- *)

let test_forced_linear_falls_back_when_inapplicable () =
  let ctx = Ctx.create ~seed:51 Ctx.Sh_hm in
  forced Joincost.Linear (fun () ->
      Joincost.reset_log ();
      (* fused aggregations are out of the linear operator's class *)
      let j =
        Dataflow.inner_join (customers ctx) (orders ctx) ~on:[ "CustKey" ]
          ~aggs:
            [
              {
                Dataflow.a_src = "Price";
                a_dst = "Total";
                a_func = Orq_core.Aggnet.Sum;
                a_width = 20;
              };
            ]
      in
      ignore j;
      match Joincost.log () with
      | [ d ] ->
          Alcotest.(check string) "fell back to sort" "sort"
            (Joincost.op_label d.Joincost.jd_chosen);
          Alcotest.(check bool) "logged as forced" true d.Joincost.jd_forced
      | ds -> Alcotest.failf "expected 1 decision, got %d" (List.length ds))

let test_decision_log_and_auto_pick () =
  let ctx = Ctx.create ~seed:51 Ctx.Sh_hm in
  with_mode Joincost.Auto (fun () ->
      Joincost.reset_log ();
      let j =
        Dataflow.inner_join (customers ctx) (orders ctx) ~on:[ "CustKey" ]
          ~copy:[ "Nation" ]
      in
      ignore j;
      match Joincost.log () with
      | [ d ] ->
          Alcotest.(check bool) "not forced" false d.Joincost.jd_forced;
          Alcotest.(check bool) "all three candidates priced" true
            (List.length d.Joincost.jd_cands = 3);
          (* the logged choice is the cheapest candidate by modeled time *)
          let cheapest =
            List.fold_left
              (fun (bo, bs) (o, _, s) -> if s < bs then (o, s) else (bo, bs))
              (Joincost.Sort, infinity)
              d.Joincost.jd_cands
            |> fst
          in
          Alcotest.(check string) "chosen == predicted cheapest"
            (Joincost.op_label cheapest)
            (Joincost.op_label d.Joincost.jd_chosen)
      | ds -> Alcotest.failf "expected 1 decision, got %d" (List.length ds))

let test_mode_labels_and_cache_tag () =
  List.iter
    (fun (s, expect) ->
      match Joincost.mode_of_label s with
      | Some m -> Alcotest.(check string) s expect (Joincost.mode_label m)
      | None -> Alcotest.failf "mode_of_label %s" s)
    [ ("auto", "auto"); ("sort", "sort"); ("linear", "linear"); ("quad", "quad") ];
  Alcotest.(check bool) "bad label rejected" true
    (Joincost.mode_of_label "bogus" = None);
  with_mode (Joincost.Force Joincost.Linear) (fun () ->
      let tag = Joincost.cache_tag () in
      Alcotest.(check bool) "tag names the mode" true
        (String.length tag > 6 && String.sub tag 0 6 = "linear"))

(* ---------------- pick correctness ---------------- *)

(* On a concrete join shape, run every applicable operator forced,
   measure its real traffic, and check that the operator the cost model
   ranks cheapest is also the measured-cheapest one (under the same
   modeled network time, without the downstream surcharge — the inputs
   are compared operator-vs-operator on equal output semantics, so we
   bound the check to Sort vs Linear whose outputs are row-equivalent). *)
let test_predicted_cheapest_is_measured_cheapest () =
  for_all_kinds (fun ctx ->
      let n = 48 and m = 64 in
      let l =
        Table.create ctx "l"
          [
            ("K", 16, Array.init n (fun i -> i + 1));
            ("X", 8, Array.init n (fun i -> (i * 7) land 255));
          ]
      and r =
        Table.create ctx "r"
          [
            ("K", 16, Array.init m (fun i -> (i * 3 mod (2 * n)) + 1));
            ("Y", 8, Array.init m (fun i -> (i * 5) land 255));
          ]
      in
      let measure op =
        forced op (fun () ->
            let snap = Comm.snapshot ctx.Ctx.comm in
            let j = Dataflow.inner_join l r ~on:[ "K" ] ~copy:[ "X" ] in
            ignore (Table.valid_rows_sorted j [ "K" ]);
            Comm.since ctx.Ctx.comm snap)
      in
      let t_sort = measure Joincost.Sort
      and t_linear = measure Joincost.Linear in
      let measured_cheapest =
        if Joincost.seconds t_linear <= Joincost.seconds t_sort then
          Joincost.Linear
        else Joincost.Sort
      in
      let shape =
        {
          Joincost.j_n = n;
          j_m = m;
          j_key_w = [ 16 ];
          j_copy_w = [ 8 ];
          j_pay_w = [ 8 ];
          j_aggs = false;
          j_bounded = false;
          j_variant = Joincost.J_inner;
        }
      in
      let predicted = with_mode Joincost.Auto (fun () -> Joincost.choose ctx shape) in
      Alcotest.(check string)
        (Printf.sprintf "pick on %s" (Ctx.kind_label ctx.Ctx.kind))
        (Joincost.op_label measured_cheapest)
        (Joincost.op_label predicted);
      (* and the model agrees with the meter on which of the two is
         lighter in absolute traffic, not just modeled seconds *)
      Alcotest.(check bool) "linear measured lighter in bits" true
        (t_linear.Comm.t_bits < t_sort.Comm.t_bits);
      Alcotest.(check bool) "linear measured lighter in rounds" true
        (t_linear.Comm.t_rounds < t_sort.Comm.t_rounds))

let () =
  Alcotest.run "linjoin"
    [
      ( "identity",
        [
          Alcotest.test_case "inner vs sort+plaintext" `Quick
            test_linear_inner_vs_sort_and_plaintext;
          Alcotest.test_case "inner no copy" `Quick test_linear_inner_no_copy;
          Alcotest.test_case "validity" `Quick test_linear_respects_validity;
          Alcotest.test_case "composite key" `Quick test_linear_composite_key;
          Alcotest.test_case "signed columns" `Quick
            test_signed_columns_keep_sign;
          Alcotest.test_case "semi+anti" `Quick test_linear_semi_anti;
          Alcotest.test_case "semi+anti duplicates" `Quick
            test_linear_semi_anti_duplicates;
        ] );
      ( "selection",
        [
          Alcotest.test_case "inapplicable fallback" `Quick
            test_forced_linear_falls_back_when_inapplicable;
          Alcotest.test_case "decision log + auto" `Quick
            test_decision_log_and_auto_pick;
          Alcotest.test_case "labels + cache tag" `Quick
            test_mode_labels_and_cache_tag;
          Alcotest.test_case "predicted == measured" `Quick
            test_predicted_cheapest_is_measured_cheapest;
        ] );
    ]
