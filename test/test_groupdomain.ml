(** GROUP BY over declared public domains: the one-hot body must give the
    plaintext engine's groups and the sort body's groups on the same table
    (domain stripped) under every protocol, with and without chunking; the
    data owner's share-time check must refuse out-of-domain values; and a
    domain must survive the operators that only move values. *)

module Chunkvec = Orq_util.Chunkvec
module Ptable = Orq_plaintext.Ptable
module Tpch_gen = Orq_workloads.Tpch_gen
open Orq_proto
open Orq_core

let kinds = Ctx.all_kinds

(* The same table with every declared domain removed: forces the sort
   body. *)
let strip (t : Table.t) =
  Table.of_columns (Table.ctx t) t.Table.name ~valid:t.Table.valid
    (List.map (fun (n, c) -> (n, { c with Column.domain = None })) t.Table.cols)

let last_group_choice () =
  match List.rev (Joincost.group_log ()) with
  | d :: _ -> d.Joincost.gd_chosen
  | [] -> Alcotest.fail "no GROUP BY decision logged"

let aggs =
  [
    { Dataflow.src = "X"; dst = "s"; fn = Dataflow.Sum };
    { Dataflow.src = "X"; dst = "c"; fn = Dataflow.Count };
    { Dataflow.src = "X"; dst = "a"; fn = Dataflow.Avg };
    { Dataflow.src = "X"; dst = "lo"; fn = Dataflow.Min };
    { Dataflow.src = "X"; dst = "hi"; fn = Dataflow.Max };
  ]

let paggs =
  [
    { Ptable.src = "X"; dst = "s"; fn = Ptable.Sum };
    { Ptable.src = "X"; dst = "c"; fn = Ptable.Count };
    { Ptable.src = "X"; dst = "a"; fn = Ptable.Avg };
    { Ptable.src = "X"; dst = "lo"; fn = Ptable.Min };
    { Ptable.src = "X"; dst = "hi"; fn = Ptable.Max };
  ]

let out_cols keys = keys @ [ "s"; "c"; "a"; "lo"; "hi" ]

(* A random table: key G in [2, 5], key H in [0, 1], value X; each row is
   invalid with probability [p_invalid / 4], and invalid rows hold keys
   outside the domains (the check and the membership bits only concern
   valid rows). *)
let random_case seed =
  let prg = Orq_util.Prg.create (seed + 977) in
  let r b = Orq_util.Prg.int_below prg b in
  let n = 4 + r 16 in
  let p_invalid = r 5 in
  let valid = Array.init n (fun _ -> if r 4 < p_invalid then 0 else 1) in
  let g = Array.mapi (fun i _ -> if valid.(i) = 1 then 2 + r 4 else 9 + r 6) valid in
  let h = Array.mapi (fun i _ -> if valid.(i) = 1 then r 2 else 3) valid in
  let x = Array.init n (fun _ -> r 200) in
  (valid, g, h, x)

let check_case ~chunked kind keys (valid, g, h, x) =
  let ctx = Ctx.create ~seed:7 kind in
  let t =
    Table.create ctx "T" ~valid
      ~domains:[ ("G", (2, 5)); ("H", (0, 1)) ]
      [ ("G", 4, g); ("H", 2, h); ("X", 8, x) ]
  in
  if chunked then Table.park t;
  Joincost.reset_log ();
  let onehot = Dataflow.aggregate t ~keys ~aggs in
  let chose = last_group_choice () in
  let sorted = Dataflow.aggregate (strip t) ~keys ~aggs in
  let live = List.filter (fun i -> valid.(i) = 1) (List.init (Array.length x) Fun.id) in
  let pick a = Array.of_list (List.map (fun i -> a.(i)) live) in
  let reference =
    Ptable.group_by
      (Ptable.of_cols [ ("G", pick g); ("H", pick h); ("X", pick x) ])
      ~keys ~aggs:paggs
  in
  let cols = out_cols keys in
  let k = if keys = [ "G" ] then 4 else 8 in
  chose = Joincost.Group_domain
  && Table.nrows onehot = k
  (* one output schema: keys, then the aggregates *)
  && Table.col_names onehot = cols
  && Table.col_names sorted = cols
  && Table.valid_rows_sorted onehot cols = Ptable.rows_sorted reference cols
  && Table.valid_rows_sorted sorted cols = Ptable.rows_sorted reference cols

let qcheck_onehot_matches name ~chunked =
  QCheck.Test.make ~name ~count:6
    QCheck.(int_bound 100_000)
    (fun seed ->
      let case = random_case seed in
      let run () =
        List.for_all
          (fun kind ->
            check_case ~chunked kind [ "G" ] case
            && check_case ~chunked kind [ "G"; "H" ] case)
          kinds
      in
      if not chunked then run ()
      else begin
        let rows0 = Chunkvec.chunk_rows () and on0 = Chunkvec.streaming_enabled () in
        Chunkvec.set_chunk_rows 4;
        Fun.protect
          ~finally:(fun () ->
            Chunkvec.set_chunk_rows rows0;
            Chunkvec.set_streaming on0)
          run
      end)

let test_all_invalid () =
  List.iter
    (fun kind ->
      let n = 5 in
      Alcotest.(check bool)
        (Ctx.kind_label kind ^ ": every group empty")
        true
        (check_case ~chunked:false kind [ "G"; "H" ]
           (Array.make n 0, Array.make n 15, Array.make n 3, Array.init n Fun.id)))
    kinds

(* ---------------- share-time domain check ---------------- *)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument msg -> String.length msg > 0

let test_out_of_domain_rejected () =
  let ctx = Ctx.create Ctx.Sh_hm in
  Alcotest.(check bool) "a valid row outside the domain is refused" true
    (raises_invalid (fun () ->
         Table.create ctx "T" ~domains:[ ("G", (1, 3)) ]
           [ ("G", 4, [| 1; 4; 2 |]) ]));
  Alcotest.(check bool) "an invalid row may hold anything" false
    (raises_invalid (fun () ->
         Table.create ctx "T" ~valid:[| 1; 0; 1 |] ~domains:[ ("G", (1, 3)) ]
           [ ("G", 4, [| 1; 4; 2 |]) ]));
  (* the catalog's own check, in the monolithic and the chunked branch *)
  let plain = Tpch_gen.generate ~seed:3 0.0002 in
  let li = plain.Tpch_gen.lineitem in
  let idx = Ptable.col_idx li "l_shipmode" in
  let bad =
    {
      plain with
      Tpch_gen.lineitem =
        {
          li with
          Ptable.rows =
            List.mapi
              (fun i row ->
                if i = 1 then List.mapi (fun j v -> if j = idx then 8 else v) row
                else row)
              li.Ptable.rows;
        };
    }
  in
  Alcotest.(check bool) "TPC-H share refuses l_shipmode = 8" true
    (raises_invalid (fun () -> Tpch_gen.share ctx bad));
  let rows0 = Chunkvec.chunk_rows () and on0 = Chunkvec.streaming_enabled () in
  Chunkvec.set_chunk_rows 64;
  Fun.protect
    ~finally:(fun () ->
      Chunkvec.set_chunk_rows rows0;
      Chunkvec.set_streaming on0)
    (fun () ->
      Alcotest.(check bool) "chunked TPC-H share refuses it too" true
        (raises_invalid (fun () -> Tpch_gen.share ctx bad)))

(* ---------------- domain propagation ---------------- *)

(* Q12's and the service mix's shape: filter -> inner join carrying a
   domain-declared left column via [copy] -> GROUP BY that column. *)
let test_domain_survives_join () =
  List.iter
    (fun mode ->
      Joincost.set_mode mode;
      Fun.protect
        ~finally:(fun () -> Joincost.set_mode Joincost.Auto)
        (fun () ->
          let ctx = Ctx.create ~seed:11 Ctx.Sh_hm in
          let orders =
            Table.create ctx "orders"
              ~domains:[ ("pri", (1, 5)) ]
              [ ("k", 8, [| 1; 2; 3; 4 |]); ("pri", 4, [| 1; 5; 2; 5 |]) ]
          in
          let li =
            Table.create ctx "li"
              [ ("k", 8, [| 1; 1; 2; 4; 4; 3; 2 |]); ("q", 8, [| 3; 4; 5; 6; 7; 8; 9 |]) ]
          in
          let li = Dataflow.filter li Expr.(col "q" >. const 3) in
          let j = Dataflow.inner_join orders li ~on:[ "k" ] ~copy:[ "pri" ] in
          Alcotest.(check (option (pair int int)))
            (Joincost.mode_label mode ^ ": copy column keeps its domain")
            (Some (1, 5)) (Table.find j "pri").Column.domain;
          Joincost.reset_log ();
          let a =
            Dataflow.aggregate j ~keys:[ "pri" ]
              ~aggs:[ { Dataflow.src = "q"; dst = "s"; fn = Dataflow.Sum } ]
          in
          Alcotest.(check bool) "one-hot body ran" true
            (last_group_choice () = Joincost.Group_domain);
          Alcotest.(check int) "K = 5 physical rows" 5 (Table.nrows a);
          Alcotest.(check (list (list int))) "groups"
            [ [ 1; 4 ]; [ 2; 8 ]; [ 5; 27 ] ]
            (Table.valid_rows_sorted a [ "pri"; "s" ])))
    [ Joincost.Force Joincost.Sort; Joincost.Force Joincost.Linear ]

let test_derived_column_has_no_domain () =
  let ctx = Ctx.create Ctx.Sh_hm in
  let t =
    Table.create ctx "T" ~domains:[ ("G", (0, 3)) ] [ ("G", 4, [| 0; 1; 2 |]) ]
  in
  let t = Dataflow.map t ~dst:"G2" Expr.(col "G" +! const 0) in
  Alcotest.(check (option (pair int int))) "derived" None
    (Table.find t "G2").Column.domain;
  Alcotest.(check (option (pair int int))) "source kept" (Some (0, 3))
    (Table.find (Table.project t [ "G" ]) "G").Column.domain

(* At SF 1, Q15's GROUP BY l_suppkey has K = 10^4 groups over ~6M rows:
   past both caps, so the sort body runs. *)
let test_sf1_suppkey_takes_sort () =
  let choose ?(custom = false) n domains =
    Joincost.choose_group_logged ~node:"q15" ~n ~domains ~custom
  in
  let sort = Joincost.Group_sort and domain = Joincost.Group_domain in
  Joincost.reset_log ();
  Alcotest.(check bool) "SF 1: sort" true (choose 6_000_000 (Some [ 10_000 ]) = sort);
  Alcotest.(check bool) "SF 0.001: one-hot" true (choose 6_000 (Some [ 10 ]) = domain);
  Alcotest.(check bool) "at the pair cap: one-hot" true
    (choose (Joincost.domain_cap / 8) (Some [ 8 ]) = domain);
  Alcotest.(check bool) "past the pair cap: sort" true
    (choose ((Joincost.domain_cap / 8) + 1) (Some [ 8 ]) = sort);
  let kmax = Joincost.domain_max_groups in
  Alcotest.(check bool) "at the group cap: one-hot" true
    (choose 100 (Some [ 2; kmax / 2 ]) = domain);
  Alcotest.(check bool) "past the group cap: sort" true
    (choose 100 (Some [ kmax + 1 ]) = sort);
  Alcotest.(check bool) "domains whose product overflows: sort" true
    (choose 2 (Some [ 1 lsl 40; 1 lsl 40 ]) = sort);
  Alcotest.(check bool) "a key without a domain: sort" true (choose 6_000 None = sort);
  Alcotest.(check bool) "custom combine: sort" true
    (choose ~custom:true 6_000 (Some [ 10 ]) = sort);
  Alcotest.(check bool) "empty input: sort" true (choose 0 (Some [ 10 ]) = sort);
  Alcotest.(check (list (option int))) "logged K" [ Some 10_000; Some 10 ]
    (List.filteri (fun i _ -> i < 2)
       (List.map (fun d -> d.Joincost.gd_k) (Joincost.group_log ())))

(* ---------------- signed AVG ---------------- *)

(* AVG of v - 15 over {1, 3}: the unsigned division used to return 8179
   (16358 / 2 read as unsigned 14-bit) instead of -13. Refused instead,
   by both GROUP BY bodies and by the global aggregate, and the SQL
   planner reports the refusal as a planner error. *)
let test_signed_avg_refused () =
  let ctx = Ctx.create Ctx.Sh_hm in
  let t =
    Table.create ctx "T" ~domains:[ ("g", (0, 1)) ]
      [ ("g", 2, [| 0; 0 |]); ("v", 8, [| 1; 3 |]) ]
  in
  let t = Dataflow.map t ~dst:"d" Expr.(col "v" -! const 15) in
  Alcotest.(check bool) "d is signed" true (Table.find t "d").Column.signed;
  let avg = [ { Dataflow.src = "d"; dst = "m"; fn = Dataflow.Avg } ] in
  let names_column f =
    match f () with
    | _ -> false
    | exception Dataflow.Unsupported msg ->
        String.length msg >= 6 && String.sub msg 0 6 = "AVG(d)"
  in
  Alcotest.(check bool) "one-hot body" true
    (names_column (fun () -> Dataflow.aggregate t ~keys:[ "g" ] ~aggs:avg));
  Alcotest.(check bool) "sort body" true
    (names_column (fun () -> Dataflow.aggregate (strip t) ~keys:[ "g" ] ~aggs:avg));
  Alcotest.(check bool) "global aggregate" true
    (names_column (fun () -> Dataflow.global_aggregate t ~aggs:avg));
  (* SUM of the same signed column stays correct *)
  let s =
    Dataflow.aggregate t ~keys:[ "g" ]
      ~aggs:[ { Dataflow.src = "d"; dst = "s"; fn = Dataflow.Sum } ]
  in
  let w = Table.width s "s" in
  Alcotest.(check (list (list int))) "signed SUM" [ [ 0; -26 land Orq_util.Ring.mask w ] ]
    (List.map
       (fun r -> List.map2 (fun v w -> v land Orq_util.Ring.mask w) r [ 2; w ])
       (Table.valid_rows_sorted s [ "g"; "s" ]))

let () =
  Alcotest.run "orq_groupdomain"
    [
      ( "onehot",
        [
          QCheck_alcotest.to_alcotest
            (qcheck_onehot_matches "one-hot = plaintext = sort body" ~chunked:false);
          QCheck_alcotest.to_alcotest
            (qcheck_onehot_matches "chunked one-hot = plaintext = sort body"
               ~chunked:true);
          Alcotest.test_case "all rows invalid" `Quick test_all_invalid;
        ] );
      ( "domain",
        [
          Alcotest.test_case "out-of-domain value rejected at share time" `Quick
            test_out_of_domain_rejected;
          Alcotest.test_case "domain survives filter, join copy, aggregate" `Quick
            test_domain_survives_join;
          Alcotest.test_case "derived columns drop the domain" `Quick
            test_derived_column_has_no_domain;
          Alcotest.test_case "K = 10^4 at SF 1 takes the sort body" `Quick
            test_sf1_suppkey_takes_sort;
        ] );
      ( "avg",
        [ Alcotest.test_case "signed AVG refused" `Quick test_signed_avg_refused ] );
    ]
