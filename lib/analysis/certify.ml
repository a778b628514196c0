(** Oblivious-transcript certifier: machine-check that every query's
    communication transcript is a function of public shape only.

    The check materializes the definition of obliviousness (§2.4, Appendix
    C). For each query and protocol it records two structural transcripts
    ({!Orq_net.Comm.start_recording}):

    - {b measured} — the query over the real benchmark data, validated
      against the plaintext reference engine while recording;
    - {b predicted} — the cost model's whole-plan prediction: the same
      plan evaluated over a {e shape twin} of the database, in which every
      value has been replaced by a deterministic function of its (table,
      column, row index) coordinate. The twin shares nothing with the data
      but its public shape, so this run is exactly the symbolic evaluation
      of the {!Costmodel} cost semantics over (rows, widths, protocol).

    If the two transcripts are event-for-event identical, no event of the
    trace — round boundary, payload size, message count, operator label —
    depended on anything secret: a certificate of zero leakage for that
    (query, protocol) pair.

    Shuffle-then-reveal quicksort (triggered by sort keys wider than the
    radixsort threshold) is the engine's one {e distributionally} oblivious
    component: its partition trace is drawn fresh per run from a
    data-independent distribution (Appendix B.1), so it cannot be certified
    by transcript equality. Those queries are certified {e
    modulo-quicksort}: events under a "quicksort" label — the exact site
    quarantined in {!Declass} — are projected out of both transcripts and
    the remainders must still be identical, which certifies everything
    outside the quarantined declassification. *)

open Orq_proto
open Orq_workloads
module Comm = Orq_net.Comm
module Ptable = Orq_plaintext.Ptable

(* ------------------------------------------------------------------ *)
(* Shape twins                                                         *)
(* ------------------------------------------------------------------ *)

(** Replace every value of a plaintext table by a deterministic function of
    its (column, row) coordinate — same schema, same row count, nothing
    else in common with the data. A column with a declared public domain
    gets that function mapped into its domain, so the twin passes the
    share-time check and keeps the data's public shape (the domain sizes
    K included). *)
let twin_ptable ?(domains : (string * (int * int)) list = []) (p : Ptable.t) :
    Ptable.t =
  let doms =
    List.map (fun c -> List.assoc_opt c domains) p.Ptable.schema
  in
  {
    p with
    Ptable.rows =
      List.mapi
        (fun i _ ->
          List.mapi
            (fun j dom ->
              let v = ((i * 31) + (j * 17) + 5) land 0xFFFF in
              match dom with
              | Some (lo, hi) -> lo + (v mod (hi - lo + 1))
              | None -> v)
            doms)
        p.Ptable.rows;
  }

let twin_tpch (p : Tpch_gen.plain) : Tpch_gen.plain =
  let twin name t = twin_ptable ~domains:(Tpch_gen.domains p name) t in
  {
    Tpch_gen.region = twin "region" p.Tpch_gen.region;
    nation = twin "nation" p.Tpch_gen.nation;
    supplier = twin "supplier" p.Tpch_gen.supplier;
    customer = twin "customer" p.Tpch_gen.customer;
    part = twin "part" p.Tpch_gen.part;
    partsupp = twin "partsupp" p.Tpch_gen.partsupp;
    orders = twin "orders" p.Tpch_gen.orders;
    lineitem = twin "lineitem" p.Tpch_gen.lineitem;
  }

let twin_other (p : Other_gen.plain) : Other_gen.plain =
  {
    Other_gen.diagnosis = twin_ptable p.Other_gen.diagnosis;
    medication = twin_ptable p.Other_gen.medication;
    labs = twin_ptable p.Other_gen.labs;
    cohort = twin_ptable p.Other_gen.cohort;
    passwords = twin_ptable p.Other_gen.passwords;
    credit = twin_ptable p.Other_gen.credit;
    r_att = twin_ptable p.Other_gen.r_att;
    s_val = twin_ptable p.Other_gen.s_val;
    transactions = twin_ptable p.Other_gen.transactions;
    yr = twin_ptable p.Other_gen.yr;
    ys = twin_ptable p.Other_gen.ys;
    yt = twin_ptable p.Other_gen.yt;
  }

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)
(* ------------------------------------------------------------------ *)

type mode =
  | Exact  (** transcripts event-for-event identical *)
  | Modulo_quicksort
      (** identical after projecting out the quarantined quicksort events
          (distributional obliviousness, Appendix B.1) *)

let mode_label = function
  | Exact -> "exact"
  | Modulo_quicksort -> "modulo-quicksort"

type cert = {
  c_query : string;
  c_protocol : string;
  c_mode : mode;
  c_ok : bool;
  c_validated : bool;  (** measured run also matched the plaintext engine *)
  c_events : int;  (** measured transcript length *)
  c_tally : Comm.tally;  (** measured online traffic *)
  c_detail : string;  (** first divergence on failure, "" otherwise *)
}

let contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

let quicksort_event (e : Comm.event) = contains ~sub:"quicksort" e.Comm.ev_label

let project_quicksort evs =
  Array.of_list
    (List.filter (fun e -> not (quicksort_event e)) (Array.to_list evs))

let diff_detail which = function
  | None -> ""
  | Some (i, a, b) ->
      let pp = function
        | None -> "<end of transcript>"
        | Some e -> Fmt.str "%a" Comm.pp_event e
      in
      Fmt.str "%s event %d: measured %s vs predicted %s" which i (pp a) (pp b)

(* Record the transcript of [f] on [ctx]'s online meter. *)
let record ?(capacity = 1 lsl 20) (ctx : Ctx.t) f =
  Comm.start_recording ~capacity ctx.Ctx.comm;
  let finish () =
    let tr = Comm.transcript ctx.Ctx.comm in
    let dropped = Comm.dropped_events ctx.Ctx.comm in
    Comm.stop_recording ctx.Ctx.comm;
    (tr, dropped)
  in
  let r = try f () with e -> ignore (finish ()); raise e in
  let tr, dropped = finish () in
  (r, tr, dropped)

(** Certify one query given the two runs as closures over fresh, same-seed
    contexts: [measured] validates over the real data, [predicted] runs the
    plan over the shape twin. *)
let certify_one ~query ~kind ~(measured : Ctx.t -> bool) ~(predicted : Ctx.t -> unit) : cert =
  let seed = 5 in
  let ctx_m = Ctx.create ~seed kind in
  let validated, tr_m, drop_m = record ctx_m (fun () -> measured ctx_m) in
  let ctx_p = Ctx.create ~seed kind in
  let (), tr_p, drop_p = record ctx_p (fun () -> predicted ctx_p) in
  let base =
    {
      c_query = query;
      c_protocol = Ctx.kind_label kind;
      c_mode = Exact;
      c_ok = false;
      c_validated = validated;
      c_events = Array.length tr_m;
      c_tally = Costmodel.tally_of tr_m;
      c_detail = "";
    }
  in
  if drop_m > 0 || drop_p > 0 then
    { base with c_detail = "transcript ring overflow; raise capacity" }
  else
    match Comm.transcript_diff tr_m tr_p with
    | None -> { base with c_ok = true }
    | Some _ as d ->
        let qs_m = Array.exists quicksort_event tr_m in
        let qs_p = Array.exists quicksort_event tr_p in
        if not (qs_m && qs_p) then
          { base with c_detail = diff_detail "full" d }
        else begin
          (* quarantined distributional component present in both runs:
             certify everything outside it *)
          match
            Comm.transcript_diff (project_quicksort tr_m)
              (project_quicksort tr_p)
          with
          | None -> { base with c_mode = Modulo_quicksort; c_ok = true }
          | Some _ as d ->
              {
                base with
                c_mode = Modulo_quicksort;
                c_detail = diff_detail "quicksort-projected" d;
              }
        end

(* ------------------------------------------------------------------ *)
(* The 31-query suite                                                  *)
(* ------------------------------------------------------------------ *)

(** Certify the full workload (22 TPC-H + 9 prior-work queries, over the
    canonical suite dataset) under the given protocols. [names] restricts
    the query set (quick mode). *)
let run_suite ?sf ?other_n ?(kinds = Ctx.all_kinds)
    ?(names : string list option) () : cert list =
  let keep (e : Workload.t) =
    match names with None -> true | Some ns -> List.mem e.name ns
  in
  let data = Workload.suite_data ?sf ?n:other_n () in
  let twin =
    {
      Workload.tpch = lazy (twin_tpch (Lazy.force data.Workload.tpch));
      other = lazy (twin_other (Lazy.force data.Workload.other));
    }
  in
  let entries = List.filter keep Workload.suite in
  List.concat_map
    (fun kind ->
      List.map
        (fun (e : Workload.t) ->
          certify_one ~query:e.name ~kind
            ~measured:(fun ctx ->
              let q = e.prepare data ctx in
              let ok, _, _ = q.Workload.validate (q.Workload.run ()) in
              ok)
            ~predicted:(fun ctx -> ignore ((e.prepare twin ctx).Workload.run ())))
        entries)
    kinds

let all_ok certs = List.for_all (fun c -> c.c_ok && c.c_validated) certs

let pp_cert ppf c =
  Fmt.pf ppf "%-14s %-7s %-17s %-9s %8d events  %a%s" c.c_query c.c_protocol
    (if c.c_ok then "certified" else "NOT-OBLIVIOUS")
    (mode_label c.c_mode) c.c_events Comm.pp_tally c.c_tally
    (if c.c_detail = "" then "" else "\n    " ^ c.c_detail)

(** The certificate report uploaded by CI. *)
let report_json ?(sf = Workload.suite_sf) ?(other_n = Workload.suite_n)
    (certs : cert list) :
    Orq_util.Json.t =
  let open Orq_util.Json in
  let row c =
    Obj
      [ ("query", String c.c_query); ("protocol", String c.c_protocol);
        ("mode", String (mode_label c.c_mode)); ("certified", Bool c.c_ok);
        ("validated", Bool c.c_validated); ("events", Int c.c_events);
        ("rounds", Int c.c_tally.Comm.t_rounds);
        ("bits", Int c.c_tally.Comm.t_bits);
        ("messages", Int c.c_tally.Comm.t_messages);
        ("detail", String c.c_detail) ]
  in
  Obj
    [ ("sf", Float sf); ("other_n", Int other_n);
      ("certified", Bool (all_ok certs));
      ("certificates", List (List.map row certs)) ]
