(* Validation of the nine queries from prior relational-MPC works against
   the plaintext reference engine, under the honest-majority protocol (plus
   cross-protocol smoke tests), and of the SecretFlow S1-S5 variants. *)

open Orq_proto
open Orq_workloads

let pp_rows = Fmt.(brackets (list ~sep:semi (brackets (list ~sep:semi int))))

let check ~data ~seed kind qname () =
  let e = Workload.find qname in
  let ctx = Ctx.create ~seed kind in
  let q = e.prepare data ctx in
  let ok, mpc_rows, ref_rows = q.Workload.validate (q.Workload.run ()) in
  if not ok then
    Alcotest.failf "%s mismatch:@.MPC: %a@.REF: %a" qname pp_rows mpc_rows
      pp_rows ref_rows

let of_family f = List.filter (fun (e : Workload.t) -> e.family = f) Workload.all

let data = Workload.suite_data ()
let check_other = check ~data ~seed:13

let nonempty (q : (_, _) Query.t) () =
  (* the chosen dataset sizes must make every query non-degenerate *)
  let r = q.reference (Lazy.force data.Workload.other) in
  Alcotest.(check bool)
    (q.name ^ " reference non-empty")
    true
    (Orq_plaintext.Ptable.nrows r > 0)

let cases =
  List.concat_map
    (fun (q : (_, _) Query.t) ->
      [
        Alcotest.test_case (q.name ^ " non-degenerate") `Quick (nonempty q);
        Alcotest.test_case (q.name ^ " [SH-HM]") `Slow
          (check_other Ctx.Sh_hm q.name);
      ])
    Other_queries.all

let cross =
  [
    Alcotest.test_case "Comorbidity [SH-DM]" `Slow (check_other Ctx.Sh_dm "Comorbidity");
    Alcotest.test_case "Comorbidity [Mal-HM]" `Slow (check_other Ctx.Mal_hm "Comorbidity");
    Alcotest.test_case "Patients [SH-DM]" `Slow (check_other Ctx.Sh_dm "Patients");
  ]

(* SecretFlow S1-S5 variants, validated under SH-DM (the ABY-based setting
   they run in). *)
let sf_cases =
  let check_sf = check ~data:(Workload.data ~tpch_seed:21 ()) ~seed:3 Ctx.Sh_dm in
  List.map
    (fun (e : Workload.t) ->
      Alcotest.test_case (e.name ^ " [SH-DM]") `Slow (check_sf e.name))
    (of_family Workload.Secretflow)

let () =
  Alcotest.run "orq_other_queries"
    [ ("other", cases @ cross); ("secretflow", sf_cases) ]
