(* End-to-end validation of the full TPC-H workload: every query runs under
   MPC at a micro scale factor and must produce exactly the rows of the
   plaintext reference engine (the paper's SQLite validation, §5.1). *)

open Orq_proto
open Orq_workloads

let data = Workload.suite_data ()
let plain = data.Workload.tpch

let pp_rows = Fmt.(brackets (list ~sep:semi (brackets (list ~sep:semi int))))

let check_entry ?(data = data) ?seed kind (e : Workload.t) =
  let seed = Option.value seed ~default:(Workload.ctx_seed e) in
  let ctx = Ctx.create ~seed kind in
  let q = e.prepare data ctx in
  let ok, mpc_rows, ref_rows = q.Workload.validate (q.Workload.run ()) in
  if not ok then
    Alcotest.failf "%s mismatch:@.MPC: %a@.REF: %a" e.name pp_rows mpc_rows
      pp_rows ref_rows

let check_query kind qname () = check_entry kind (Workload.find qname)

let sh_hm_cases =
  List.filter_map
    (fun (e : Workload.t) ->
      if e.family <> Workload.Tpch then None
      else
        Some
          (Alcotest.test_case (e.name ^ " [SH-HM]") `Slow (fun () ->
               check_entry Ctx.Sh_hm e)))
    Workload.all

(* cross-protocol smoke: one cheap and one join-heavy query under the
   dishonest-majority and malicious protocols *)
let cross_protocol_cases =
  List.concat_map
    (fun kind ->
      List.map
        (fun qname ->
          Alcotest.test_case
            (qname ^ " [" ^ Ctx.kind_label kind ^ "]")
            `Slow (check_query kind qname))
        [ "Q6"; "Q4" ])
    [ Ctx.Sh_dm; Ctx.Mal_hm ]

let test_generator_shape () =
  let db = Lazy.force plain in
  let n t = Orq_plaintext.Ptable.nrows t in
  Alcotest.(check int) "regions" 5 (n db.Tpch_gen.region);
  Alcotest.(check int) "nations" 25 (n db.Tpch_gen.nation);
  Alcotest.(check bool) "lineitem largest" true
    (n db.Tpch_gen.lineitem > n db.Tpch_gen.orders);
  Alcotest.(check bool) "orders 10x customers" true
    (n db.Tpch_gen.orders = 10 * n db.Tpch_gen.customer)

let test_generator_integrity () =
  (* primary keys unique, foreign keys resolvable — the constraints the
     one-to-many join plans rely on *)
  let module P = Orq_plaintext.Ptable in
  let db = Tpch_gen.generate ~seed:4242 0.0005 in
  let col t name = List.map (P.get t name) t.P.rows in
  let unique l = List.length (List.sort_uniq compare l) = List.length l in
  Alcotest.(check bool) "custkey pk" true (unique (col db.Tpch_gen.customer "c_custkey"));
  Alcotest.(check bool) "orderkey pk" true (unique (col db.Tpch_gen.orders "o_orderkey"));
  Alcotest.(check bool) "partkey pk" true (unique (col db.Tpch_gen.part "p_partkey"));
  Alcotest.(check bool) "suppkey pk" true (unique (col db.Tpch_gen.supplier "s_suppkey"));
  let ps_pairs =
    List.map
      (fun r -> (P.get db.Tpch_gen.partsupp "ps_partkey" r, P.get db.Tpch_gen.partsupp "ps_suppkey" r))
      db.Tpch_gen.partsupp.P.rows
  in
  Alcotest.(check bool) "partsupp composite pk" true (unique ps_pairs);
  let contains sub super =
    let s = List.sort_uniq compare super in
    List.for_all (fun x -> List.mem x s) (List.sort_uniq compare sub)
  in
  Alcotest.(check bool) "orders.custkey fk" true
    (contains (col db.Tpch_gen.orders "o_custkey") (col db.Tpch_gen.customer "c_custkey"));
  Alcotest.(check bool) "lineitem.orderkey fk" true
    (contains (col db.Tpch_gen.lineitem "l_orderkey") (col db.Tpch_gen.orders "o_orderkey"));
  Alcotest.(check bool) "lineitem.partkey fk" true
    (contains (col db.Tpch_gen.lineitem "l_partkey") (col db.Tpch_gen.part "p_partkey"));
  Alcotest.(check bool) "supplier nations in range" true
    (List.for_all (fun x -> x >= 0 && x < 25) (col db.Tpch_gen.supplier "s_nationkey"))

let test_generator_deterministic () =
  let a = Tpch_gen.generate ~seed:7 0.0002 in
  let b = Tpch_gen.generate ~seed:7 0.0002 in
  Alcotest.(check bool) "same seed, same data" true
    (a.Tpch_gen.lineitem.Orq_plaintext.Ptable.rows
    = b.Tpch_gen.lineitem.Orq_plaintext.Ptable.rows);
  let c = Tpch_gen.generate ~seed:8 0.0002 in
  Alcotest.(check bool) "different seed, different data" false
    (a.Tpch_gen.lineitem.Orq_plaintext.Ptable.rows
    = c.Tpch_gen.lineitem.Orq_plaintext.Ptable.rows)

(* robustness: a handful of queries re-validated on an unrelated dataset *)
let alt_seed_cases =
  let data = Workload.data ~tpch_seed:777 ~sf:0.0003 () in
  List.map
    (fun qname ->
      Alcotest.test_case (qname ^ " [alt seed]") `Slow (fun () ->
          check_entry ~data ~seed:42 Ctx.Sh_hm (Workload.find qname)))
    [ "Q1"; "Q3"; "Q9"; "Q13"; "Q18"; "Q21" ]

(* the analyst learns the declared answer and nothing more: every
   registered query returns exactly its declared columns, so a reveal of
   its result opens nothing else *)
let test_declared_output () =
  Alcotest.(check int) "registered queries" 36 (List.length Workload.all);
  List.iter
    (fun (e : Workload.t) ->
      let ctx = Ctx.create ~seed:(Workload.ctx_seed e) Ctx.Sh_hm in
      let t = (e.prepare data ctx).Workload.run () in
      Alcotest.(check (list string))
        (e.name ^ " columns") e.compare_cols
        (Orq_core.Table.col_names t))
    Workload.all

let () =
  Alcotest.run "orq_tpch"
    [
      ( "generator",
        [
          Alcotest.test_case "shape" `Quick test_generator_shape;
          Alcotest.test_case "pk/fk integrity" `Quick test_generator_integrity;
          Alcotest.test_case "determinism" `Quick test_generator_deterministic;
        ] );
      ("tpch-validate", sh_hm_cases @ cross_protocol_cases @ alt_seed_cases);
      ( "registry",
        [
          Alcotest.test_case "every query returns its declared columns" `Slow
            test_declared_output;
        ] );
    ]
