(** [suite] — the query-suite audit: every workload query (22 TPC-H + 9
    prior-work) under every protocol and engine configuration, over
    datasets generated once, with each (query, protocol, config) cell run
    exactly once. The configs are [default] (fusion on, packed flags,
    cost-based joins), [no-fusion], [word-flags] and, on the join-heavy
    targets, [join=sort|linear|quad]; the gates over the resulting records
    live in {!Suite_gates}. Writes BENCH_suite.json and exits 1 if any
    gate fails.

    Quick mode runs SH-HM over the headline queries only. *)

open Orq_proto
open Orq_workloads
open Bench_util
open Suite_gates
module Json = Orq_util.Json

(* The queries the fusion, packing and join work target. *)
let quick_queries =
  [ "Q1"; "Q3"; "Q4"; "Q6"; "Q9"; "Q12"; "Q13"; "Q19"; "Aspirin";
    "Comorbidity" ]

let with_config c f =
  let fusion0 = Mpc.fusion_enabled () in
  let bitpack0 = Mpc.bitpack_enabled () in
  let join0 = Joincost.mode () in
  Mpc.set_fusion c.fusion;
  Mpc.set_bitpack c.bitpack;
  Joincost.set_mode c.join;
  Fun.protect
    ~finally:(fun () ->
      Mpc.set_fusion fusion0;
      Mpc.set_bitpack bitpack0;
      Joincost.set_mode join0)
    f

let run_cell kind data (e : Workload.t) c =
  with_config c (fun () ->
      Joincost.reset_log ();
      let ctx = Ctx.create ~seed:(Workload.ctx_seed e) kind in
      let q = e.prepare data ctx in
      let before = Comm.snapshot ctx.Ctx.comm in
      let t0 = Unix.gettimeofday () in
      let ok, _, _ = q.Workload.validate (q.Workload.run ()) in
      let wall_s = Unix.gettimeofday () -. t0 in
      {
        query = e.name;
        proto = Ctx.kind_label kind;
        config = c.label;
        ok;
        tally = Comm.since ctx.Ctx.comm before;
        joins =
          List.map
            (fun (d : Joincost.decision) ->
              Joincost.op_label d.Joincost.jd_chosen)
            (Joincost.log ());
        wall_s;
      })

let profiles = [ Netsim.lan; Netsim.wan; Netsim.geo ]

let json_of_record r =
  let open Json in
  let net (p : Netsim.profile) =
    ( String.lowercase_ascii p.Netsim.label,
      fixed 6 (Netsim.network_time p r.tally) )
  in
  Obj
    [ ("query", String r.query); ("protocol", String r.proto);
      ("config", String r.config); ("ok", Bool r.ok);
      ("rounds", Int r.tally.Comm.t_rounds); ("bits", Int r.tally.Comm.t_bits);
      ("messages", Int r.tally.Comm.t_messages);
      ("net_s", Obj (List.map net profiles));
      ("joins", List (List.map (fun j -> String j) r.joins));
      ("wall_s", fixed 6 r.wall_s) ]

let json_of_gate (name, bad) =
  let open Json in
  Obj
    [ ("gate", String name); ("pass", Bool (bad = []));
      ("failures", List (List.map (fun c -> String c) bad)) ]

let run ~quick ~sf ~other_n () =
  let kinds = if quick then [ Ctx.Sh_hm ] else Ctx.all_kinds in
  section
    (Printf.sprintf
       "Query suite: %s x {default, no-fusion, word-flags, join=*} (TPC-H @ \
        SF=%g, others @ n=%d%s)"
       (String.concat "," (List.map Ctx.kind_label kinds))
       sf other_n
       (if quick then ", quick" else ""));
  let data = Workload.suite_data ~sf ~n:other_n () in
  let qs =
    List.filter
      (fun (e : Workload.t) -> (not quick) || List.mem e.name quick_queries)
      Workload.suite
  in
  hdr "%-12s %-7s %-11s %9s %12s %7s %10s %8s  %s" "query" "proto" "config"
    "rounds" "bits" "msgs" "WAN-net" "wall" "joins";
  let records =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun q ->
            List.map
              (fun c ->
                let r = run_cell kind data q c in
                hdr "%-12s %-7s %-11s %9d %12d %7d %10s %8s  %s%s" r.query
                  r.proto r.config r.tally.Comm.t_rounds r.tally.Comm.t_bits
                  r.tally.Comm.t_messages
                  (pretty_time (Netsim.network_time Netsim.wan r.tally))
                  (pretty_time r.wall_s)
                  (String.concat "," r.joins)
                  (if r.ok then "" else "  INVALID");
                r)
              (configs_for q.Workload.name))
          qs)
      kinds
  in
  let results = check records in
  List.iter
    (fun (name, bad) ->
      if bad = [] then hdr "gate ok: %s" name
      else hdr "GATE FAILED: %s: %s" name (String.concat ", " bad))
    results;
  Json.(
    to_file "BENCH_suite.json"
      (Obj
         [ ("sf", Float sf); ("other_n", Int other_n); ("quick", Bool quick);
           ("join_profile", String (Joincost.profile ()).Netsim.label);
           ("records", List (List.map json_of_record records));
           ("gates", List (List.map json_of_gate results)) ]));
  hdr "wrote BENCH_suite.json (%d cells)" (List.length records);
  if List.exists (fun (_, bad) -> bad <> []) results then exit 1
