(* The repo benchmark: one workload per process.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--stream-seed M]

   Workloads (each chosen so one roadmap item moves it and another
   workload stays flat):
   - scan-agg: Q1, Q6, Q15 under SH-HM, SF 0.001, in memory. No joins;
     expression evaluation (Expr division/conversion circuits) and Aggnet
     dominate. The division-by-public-constant item moves it.
   - join-chain: Q2, Q4, Q18, Q20, Q21 under SH-DM (dealer preprocessing),
     SF 0.001. Linear/sort joins, the permutation apply stack and radix
     sort; no division sites, so the division item leaves it flat.
   - scan-spill: Q6, Q12 under SH-HM, SF 0.005, chunked streaming with a
     chunk budget below the workload's own chunk peak: the only workload
     that spills and faults chunks.
   - service-mix: a closed loop through the in-process query service over
     a Unix socket: one worker, one SH-HM and one MAL-HM session, each
     sending its next query after the previous reply. Four SQL templates
     over orders/customer with seeded, skewed literals, so requests
     repeat: the only workload through SQL/planner/plan cache/job queue/
     wire, and the only one with repeated inputs.

   Without --trace every end-to-end metric is printed; with --trace 1 the
   per-layer metrics (operator attribution via [Tracer], set-up split, GC,
   chunk store, service counters). Outputs are checked against the
   plaintext engine on every pass, outside the timed spans. The last
   stdout line is the JSON result; the line before it records the seeds
   and the environment. *)

module Comm = Orq_net.Comm
module Netsim = Orq_net.Netsim
module Wire = Orq_net.Wire
module Ctx = Orq_proto.Ctx
module Table = Orq_core.Table
module Tpch = Orq_workloads.Tpch
module Tpch_gen = Orq_workloads.Tpch_gen
module P = Orq_plaintext.Ptable
module Chunkvec = Orq_util.Chunkvec
module Parallel = Orq_util.Parallel
module Ring = Orq_util.Ring
module Service = Orq_service.Service
module Client = Orq_service.Client
module Sql = Orq_planner.Sql
module Optimize = Orq_planner.Optimize
module Stats = Orqbench.Stats
module Tracer = Orqbench.Tracer
module Layers = Orqbench.Layers
module Catalog = Orqbench.Catalog
module Hostspeed = Orqbench.Hostspeed

let now = Unix.gettimeofday

(* Every timing with a bound is CPU time scaled by [Hostspeed] to a
   nominal host speed; the raw CPU and wall times are reported beside it
   ([cpu.pass_s], [wall.pass_s], [host.ref_ms]). *)
let cpu_now = Hostspeed.cpu_now
let mib_of_bits b = float_of_int b /. 8. /. 1048576.
let mib_of_bytes b = float_of_int b /. 1048576.

(* ------------------------------------------------------------------ *)
(* Result accumulation                                                 *)
(* ------------------------------------------------------------------ *)

let metrics : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace metrics name v
let attempted = ref 0
let failed = ref 0
let problems = ref []

let fail_check fmt =
  Printf.ksprintf (fun s -> problems := s :: !problems; prerr_endline ("orqbench: " ^ s)) fmt

let count_outcome ok =
  incr attempted;
  if not ok then incr failed

(* Numbers as measured, with all their digits. *)
let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

(* VmHWM is a process-lifetime peak; writing 5 to clear_refs resets it to
   the current RSS, so the peak read afterwards belongs to what ran since. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5");
    true
  with Sys_error _ -> false

(* The CPUs this process may run on (run.py pins it to one). *)
let cpus_allowed () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> "unavailable"
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun l ->
             match String.split_on_char ':' l with
             | [ "Cpus_allowed_list"; v ] -> Some (String.trim v)
             | _ -> None)
      |> Option.value ~default:"unavailable"

(* Digest of the engine sources, identifying the code measured where no
   git metadata is present. *)
let source_digest root =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
        Array.sort compare names;
        Array.to_list names
        |> List.concat_map (fun n ->
               let p = Filename.concat dir n in
               if Sys.is_directory p then files p
               else if Filename.check_suffix n ".ml" || Filename.check_suffix n ".mli"
               then [ p ]
               else [])
  in
  match files root with
  | [] -> "unavailable"
  | fs ->
      Digest.to_hex
        (Digest.string (String.concat "" (List.map (fun f -> f ^ Digest.to_hex (Digest.file f)) fs)))

(* ------------------------------------------------------------------ *)
(* Suite workloads                                                     *)
(* ------------------------------------------------------------------ *)

type suite = {
  queries : string list;
  kind : Ctx.kind;
  sf : float;
  chunking : (int * int) option;  (** chunk rows, chunk budget in bytes *)
}

let suites =
  [
    ("scan-agg", { queries = [ "Q1"; "Q6"; "Q15" ]; kind = Ctx.Sh_hm; sf = 0.001; chunking = None });
    ( "join-chain",
      { queries = [ "Q2"; "Q4"; "Q18"; "Q20"; "Q21" ]; kind = Ctx.Sh_dm; sf = 0.001; chunking = None } );
    ( "scan-spill",
      {
        queries = [ "Q6"; "Q12" ];
        kind = Ctx.Sh_hm;
        sf = 0.005;
        chunking = Some (4096, 8 * 1024 * 1024);
      } );
  ]

let setup_repeats = 9

(* Lineitem is the one table whose size the generator draws (1-7 lines per
   order); its first [3.8 x orders] rows (3.9 standard deviations below the
   mean at SF 0.001) are kept, so every seed has the same public table
   sizes and metered costs differ between seeds only through
   data-dependent control flow. *)
let trim_lineitem (plain : Tpch_gen.plain) sf =
  let _, _, _, orders = Tpch_gen.sizes sf in
  let keep = 19 * orders / 5 in
  let li = plain.lineitem in
  if P.nrows li <= keep then plain
  else { plain with lineitem = P.create (P.schema li) (List.filteri (fun i _ -> i < keep) li.rows) }

type setup = { ctx : Ctx.t; plain : Tpch_gen.plain; mdb : Tpch_gen.mpc }

(* Generation and secret sharing, in scaled CPU seconds; [setup_s] is the
   median of [setup_repeats] samples. *)
let setup_samples = ref []

let suite_setup s ~seed =
  let (st, gen, shr), _, k =
    Hostspeed.span (fun () ->
        let t0 = cpu_now () in
        let plain = trim_lineitem (Tpch_gen.generate ~seed s.sf) s.sf in
        let t1 = cpu_now () in
        let ctx = Ctx.create ~seed s.kind in
        let mdb = Tpch_gen.share ctx plain in
        ({ ctx; plain; mdb }, t1 -. t0, cpu_now () -. t1))
  in
  setup_samples := (k *. gen, k *. shr) :: !setup_samples;
  st

let set_setup_metrics () =
  let gen = List.map fst !setup_samples and shr = List.map snd !setup_samples in
  set "setup_s" (Stats.median (List.map (fun (g, s) -> g +. s) !setup_samples));
  set "workloads.generate_s" (Stats.median gen);
  set "workloads.share_s" (Stats.median shr)

let query_seed ~seed name = Hashtbl.hash (seed, name)

type pass = {
  p_lat : float list;  (** per-query scaled CPU seconds *)
  p_cpu_lat : float list;  (** per-query CPU seconds *)
  p_wall_lat : float list;  (** per-query wall seconds *)
  p_on : Comm.tally;
  p_pre : Comm.tally;
  p_gc_alloc : float;  (** bytes *)
  p_gc_promoted : float;
  p_gc_major : int;
  p_ck_peak : int;
  p_ck : Chunkvec.stats;  (** deltas *)
}

let mask_rows widths rows =
  List.map (fun r -> List.map2 (fun v w -> v land Ring.mask w) r widths) rows
  |> List.sort compare

(* The revealed valid rows over [cols], masked to the MPC column widths
   (signed aggregates are two's complement at their width), sorted. *)
let canon widths cols (opened : (string * int array) list) =
  let arrays = List.map (fun c -> List.assoc c opened) cols in
  let n = match arrays with a :: _ -> Array.length a | [] -> 0 in
  mask_rows widths (List.init n (fun i -> List.map (fun a -> a.(i)) arrays))

(* One pass over the query set. Each query is reseeded so every pass (and
   the traced pass) meters the identical transcript. Only [q.run] and the
   reveal are timed; the check against the plaintext rows is not. *)
let run_pass st ~seed ~refs ?tracer queries =
  let ctx = st.ctx in
  let on0 = Comm.snapshot ctx.Ctx.comm and pre0 = Comm.snapshot ctx.Ctx.preproc in
  let gc0 = Gc.quick_stat () in
  let ck0 = Chunkvec.stats () in
  Chunkvec.reset_peak ();
  let lat =
    List.map
      (fun (q : Tpch.query) ->
        Ctx.reseed ctx (query_seed ~seed q.name);
        Option.iter Tracer.begin_span tracer;
        let t0 = now () in
        let out, dc, k =
          Hostspeed.span (fun () ->
              match q.run st.mdb with
              | result ->
                  let widths = List.map (Table.width result) q.compare_cols in
                  Ok (widths, Table.reveal result)
              | exception e -> Error e)
        in
        let dt = now () -. t0 in
        Option.iter Tracer.end_span tracer;
        (match out with
        | Ok (widths, opened) ->
            let ok =
              match canon widths q.compare_cols opened with
              | rows -> rows = mask_rows widths (List.assoc q.name refs)
              | exception Not_found -> false
            in
            if not ok then fail_check "%s: result differs from the plaintext reference" q.name;
            count_outcome ok
        | Error e ->
            fail_check "%s raised %s" q.name (Printexc.to_string e);
            count_outcome false);
        (k *. dc, dc, dt))
      queries
  in
  let pick f = List.map f lat in
  let gc1 = Gc.quick_stat () in
  let ck1 = Chunkvec.stats () in
  {
    p_lat = pick (fun (x, _, _) -> x);
    p_cpu_lat = pick (fun (_, x, _) -> x);
    p_wall_lat = pick (fun (_, _, x) -> x);
    p_on = Comm.since ctx.Ctx.comm on0;
    p_pre = Comm.since ctx.Ctx.preproc pre0;
    p_gc_alloc =
      8. *. (gc1.minor_words +. gc1.major_words -. gc1.promoted_words
            -. (gc0.minor_words +. gc0.major_words -. gc0.promoted_words));
    p_gc_promoted = 8. *. (gc1.promoted_words -. gc0.promoted_words);
    p_gc_major = gc1.major_collections - gc0.major_collections;
    p_ck_peak = Chunkvec.peak_live_bytes ();
    p_ck =
      {
        ck1 with
        st_spills = ck1.st_spills - ck0.st_spills;
        st_faults = ck1.st_faults - ck0.st_faults;
        st_spilled_bytes = ck1.st_spilled_bytes - ck0.st_spilled_bytes;
        st_faulted_bytes = ck1.st_faulted_bytes - ck0.st_faulted_bytes;
      };
  }

let same_tallies (a : pass) (b : pass) = a.p_on = b.p_on && a.p_pre = b.p_pre

let set_comm_metrics ~pass_s (on : Comm.tally) (pre : Comm.tally) =
  set "pass_s" pass_s;
  set "lan_s" (Netsim.estimate Netsim.lan ~compute_s:pass_s on);
  set "wan_s" (Netsim.estimate Netsim.wan ~compute_s:pass_s on);
  set "online_rounds" (float_of_int on.Comm.t_rounds);
  set "online_mib" (mib_of_bits on.Comm.t_bits);
  set "preproc_mib" (mib_of_bits pre.Comm.t_bits)

let sum = List.fold_left ( +. ) 0.
let json_list xs = "[" ^ String.concat ", " (List.map json_num xs) ^ "]"

let set_host_metric () = set "host.ref_ms" (1000. *. Stats.median !Hostspeed.samples)

let set_runtime_metrics (p : pass) =
  set "gc.alloc_mib" (p.p_gc_alloc /. 1048576.);
  set "gc.promoted_mib" (p.p_gc_promoted /. 1048576.);
  set "gc.major_collections" (float_of_int p.p_gc_major);
  set "chunkvec.peak_mib" (mib_of_bytes p.p_ck_peak);
  set "chunkvec.spills" (float_of_int p.p_ck.st_spills);
  set "chunkvec.faults" (float_of_int p.p_ck.st_faults);
  set "chunkvec.spilled_mib" (mib_of_bytes p.p_ck.st_spilled_bytes)

let set_operator_metrics tracer ~spans =
  let per = float_of_int spans in
  List.iter
    (fun key ->
      let a = Tracer.get tracer key in
      set (key ^ ".self_s") (a.Tracer.self_s /. per);
      set (key ^ ".rounds") (float_of_int a.rounds /. per);
      set (key ^ ".online_mib") (mib_of_bits a.bits /. per))
    Layers.keys;
  let cov_s, cov_b = Tracer.coverage tracer in
  set "trace.coverage" cov_s;
  set "trace.coverage_bits" cov_b

(* Top three keys by self time and by online bits (report lines). *)
let top3 tracer ~spans =
  let all = Tracer.fold tracer (fun k a acc -> (k, a) :: acc) [] in
  let top f =
    List.sort (fun (_, a) (_, b) -> compare (f b) (f a)) all
    |> List.filteri (fun i _ -> i < 3)
  in
  let show f fmt = String.concat ", " (List.map (fun (k, a) -> Printf.sprintf fmt k (f a)) (top f)) in
  let per = float_of_int spans in
  Printf.printf "top layers by self time: %s\n" (show (fun a -> a.Tracer.self_s /. per) "%s %.3f s");
  Printf.printf "top layers by online bits: %s\n"
    (show (fun a -> mib_of_bits a.Tracer.bits /. per) "%s %.2f MiB")

(* Peak RSS of one pass: VmHWM is a process-lifetime peak, so it is reset
   (after a full collection, so every pass starts from the same heap)
   before the pass and read after it. [None] where the reset is
   unavailable: a lifetime peak would not belong to the pass. *)
let with_peak_rss f =
  Gc.full_major ();
  let ok = reset_peak_rss () in
  let r = f () in
  (r, if ok then Some (float_of_int (Chunkvec.rss_peak_kb ()) /. 1024.) else None)

let report_peak_rss peaks =
  match List.filter_map Fun.id peaks with
  | [] -> prerr_endline "orqbench: /proc/self/clear_refs unavailable; peak_rss_mib not reported"
  | ps -> set "peak_rss_mib" (List.fold_left Float.max 0. ps)

let check_traced tracer ~traced ~untraced =
  List.iter
    (fun p ->
      if not (same_tallies p untraced) then
        fail_check "traced pass metered %s online / %s preproc; untraced %s / %s"
          (Fmt.str "%a" Comm.pp_tally p.p_on) (Fmt.str "%a" Comm.pp_tally p.p_pre)
          (Fmt.str "%a" Comm.pp_tally untraced.p_on)
          (Fmt.str "%a" Comm.pp_tally untraced.p_pre))
    traced;
  List.iter (fun e -> fail_check "%s" e) (Tracer.check tracer)

(* Whether to start pass [n + 1] of a run that began at [start]: always
   below [min] passes, otherwise only if a pass of average length still
   ends within [seconds], so a run does not overshoot its time by a pass. *)
let another_pass ~start ~seconds ~min n =
  let e = now () -. start in
  n < min || e +. (e /. float_of_int n) <= seconds

(* A query's time is the median of its passes' times: what is left after
   [Hostspeed] scaling is noise on both sides. *)
let median_of lat passes =
  match passes with
  | [] -> invalid_arg "median_of"
  | p :: _ -> List.mapi (fun i _ -> Stats.median (List.map (fun p -> List.nth (lat p) i) passes)) (lat p)

let query_s = median_of (fun p -> p.p_lat)

(* Passes for [seconds], at least three; [pass_s] sums the queries' median
   times. A traced run follows each untraced pass with a traced one, so
   both see the same machine state. *)
let run_suite s ~seed ~seconds ~traced =
  (match s.chunking with
  | Some (rows, budget) ->
      Chunkvec.set_chunk_rows rows;
      Chunkvec.set_budget budget
  | None -> ());
  for _ = 2 to setup_repeats do
    ignore (Sys.opaque_identity (suite_setup s ~seed))
  done;
  let st = suite_setup s ~seed in
  set_setup_metrics ();
  let queries = List.map Tpch.find s.queries in
  let t0 = now () in
  let refs =
    List.map
      (fun (q : Tpch.query) -> (q.name, P.rows_sorted (q.reference st.plain) q.compare_cols))
      queries
  in
  set "plaintext.reference_s" (now () -. t0);
  let tracer = Tracer.create () in
  let pass ?tracer () = run_pass st ~seed ~refs ?tracer queries in
  let start = now () in
  let rec loop plain peaks traced_ps =
    let p, peak = with_peak_rss pass in
    let traced_ps =
      if traced then begin
        Tracer.install tracer st.ctx;
        Fun.protect ~finally:(fun () -> Tracer.uninstall tracer) (pass ~tracer) :: traced_ps
      end
      else traced_ps
    in
    let plain = p :: plain and peaks = peak :: peaks in
    if another_pass ~start ~seconds ~min:3 (List.length plain) then loop plain peaks traced_ps
    else (List.rev plain, peaks, traced_ps)
  in
  let plain, peaks, traced_ps = loop [] [] [] in
  report_peak_rss peaks;
  let first = List.hd plain in
  if not (List.for_all (same_tallies first) plain) then
    fail_check "metered tallies differ between passes";
  let per_query = query_s plain in
  let pass_s = sum per_query in
  set_comm_metrics ~pass_s first.p_on first.p_pre;
  set "cpu.pass_s" (sum (median_of (fun p -> p.p_cpu_lat) plain));
  set "wall.pass_s" (sum (median_of (fun p -> p.p_wall_lat) plain));
  set_host_metric ();
  set "qps" (float_of_int (List.length queries) /. pass_s);
  (* Every suite query is a cold execution; over a handful of queries the
     tail percentile is the slowest one. *)
  let query_ms = List.map (fun x -> 1000. *. x) per_query in
  set "cold_p50_ms" (Option.get (Stats.percentile 0.5 query_ms));
  set "cold_p95_ms" (Option.get (Stats.percentile 0.95 query_ms));
  set_runtime_metrics first;
  if traced then begin
    check_traced tracer ~traced:traced_ps ~untraced:first;
    set_operator_metrics tracer ~spans:(List.length traced_ps);
    set "trace.overhead_s" (sum (query_s traced_ps) -. pass_s);
    top3 tracer ~spans:(List.length traced_ps)
  end;
  [
    ("passes", string_of_int (List.length plain));
    ("pass_scaled_s", json_list (List.map (fun p -> sum p.p_lat) plain));
    ("pass_cpu_s", json_list (List.map (fun p -> sum p.p_cpu_lat) plain));
    ("pass_wall_s", json_list (List.map (fun p -> sum p.p_wall_lat) plain));
  ]

(* ------------------------------------------------------------------ *)
(* service-mix                                                         *)
(* ------------------------------------------------------------------ *)

(* A SQL template over orders/customer: the literal grid it draws from and
   its plaintext evaluation (columns in SELECT order). *)
type template = {
  t_name : string;
  t_fresh : float;  (** share of this template's requests that use a new literal *)
  t_domain : int;  (** literal choices: [t_lit 0 .. t_lit (t_domain - 1)] *)
  t_lit : int -> int;
  t_sql : int -> string;
  t_ref : Tpch_gen.plain -> int -> P.t;
}

let templates =
  [|
    {
      t_name = "groupby";
      t_fresh = 0.45;
      t_domain = 100;
      t_lit = (fun i -> i * 10_000);
      t_sql =
        Printf.sprintf
          "SELECT c_mktsegment, COUNT(*) AS n, MAX(c_acctbal) AS m FROM customer WHERE \
           c_acctbal > %d GROUP BY c_mktsegment";
      t_ref =
        (fun db l ->
          let f = P.filter db.customer (fun g r -> g "c_acctbal" r > l) in
          P.group_by f ~keys:[ "c_mktsegment" ]
            ~aggs:[ { P.src = "c_acctbal"; dst = "n"; fn = P.Count }; { src = "c_acctbal"; dst = "m"; fn = P.Max } ]);
    };
    {
      t_name = "filtered-groupby";
      t_fresh = 0.15;
      t_domain = 200;
      t_lit = (fun i -> i * 10);
      t_sql =
        (fun l ->
          Printf.sprintf
            "SELECT o_orderpriority, COUNT(*) AS n, SUM(o_totalprice) AS s FROM orders WHERE \
             o_orderdate >= %d AND o_orderdate < %d AND o_orderstatus < 2 GROUP BY o_orderpriority"
            l (l + 365));
      t_ref =
        (fun db l ->
          let f =
            P.filter db.orders (fun g r ->
                g "o_orderdate" r >= l && g "o_orderdate" r < l + 365 && g "o_orderstatus" r < 2)
          in
          P.group_by f ~keys:[ "o_orderpriority" ]
            ~aggs:[ { P.src = "o_totalprice"; dst = "n"; fn = P.Count }; { src = "o_totalprice"; dst = "s"; fn = P.Sum } ]);
    };
    {
      t_name = "topk";
      t_fresh = 0.45;
      t_domain = 100;
      t_lit = (fun i -> 50_000 + (i * 9_500));
      t_sql =
        Printf.sprintf
          "SELECT c_custkey, c_acctbal FROM customer WHERE c_acctbal < %d ORDER BY c_acctbal DESC, \
           c_custkey LIMIT 3";
      t_ref =
        (fun db l ->
          let f = P.filter db.customer (fun g r -> g "c_acctbal" r < l) in
          let s = P.sort f [ ("c_acctbal", -1); ("c_custkey", 1) ] in
          P.project (P.limit s 3) [ "c_custkey"; "c_acctbal" ]);
    };
    {
      t_name = "join";
      t_fresh = 0.15;
      t_domain = 100;
      t_lit = (fun i -> 10_000 + (i * 5_000));
      t_sql =
        Printf.sprintf
          "SELECT c_mktsegment, COUNT(*) AS n, SUM(o_totalprice) AS s FROM orders JOIN customer \
           ON o_custkey = c_custkey WHERE o_totalprice > %d GROUP BY c_mktsegment";
      t_ref =
        (fun db l ->
          let o = P.filter db.orders (fun g r -> g "o_totalprice" r > l) in
          let o = P.rename_col o ~from:"o_custkey" ~into:"c_custkey" in
          let j = P.inner_join db.customer o ~on:[ "c_custkey" ] in
          P.group_by j ~keys:[ "c_mktsegment" ]
            ~aggs:[ { P.src = "o_totalprice"; dst = "n"; fn = P.Count }; { src = "o_totalprice"; dst = "s"; fn = P.Sum } ]);
    };
  |]

(* The request stream of one session: templates round-robin; for each
   template a fixed share of requests ([t_fresh]) introduce a literal not
   used before (drawn from a seeded permutation of its grid), the rest
   repeat a literal already used, skewed towards the earliest (Zipf,
   s = 1). The miss count is therefore fixed by the stream length, and
   which literals repeat by the seed. The two customer templates execute
   in ~10 ms, the two orders templates in ~100-200 ms, so the cheap ones
   take the larger first-use share: a pass of 2 x 44 requests has 28
   misses and takes about 1.5 seconds of one worker. *)
let stream ~seed ~session ~length =
  let rng = Random.State.make [| seed; session |] in
  let perms =
    Array.map
      (fun t ->
        let a = Array.init t.t_domain Fun.id in
        for i = t.t_domain - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let x = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- x
        done;
        a)
      templates
  in
  let used = Array.map (fun _ -> ref 0) templates in
  let uses = Array.map (fun _ -> ref 0) templates in
  let zipf n =
    let w = Array.init n (fun i -> 1. /. float_of_int (i + 1)) in
    let tot = Array.fold_left ( +. ) 0. w in
    let x = Random.State.float rng tot in
    let rec go i acc = if i >= n - 1 || acc +. w.(i) > x then i else go (i + 1) (acc +. w.(i)) in
    go 0 0.
  in
  List.init length (fun i ->
      let k = i mod Array.length templates in
      let t = templates.(k) in
      let j = !(uses.(k)) in
      incr uses.(k);
      let fresh =
        Float.to_int (Float.ceil (float_of_int (j + 1) *. t.t_fresh))
        > Float.to_int (Float.ceil (float_of_int j *. t.t_fresh))
      in
      let rank =
        if fresh then begin
          if !(used.(k)) >= t.t_domain then invalid_arg "stream: literal grid exhausted";
          incr used.(k);
          !(used.(k)) - 1
        end
        else zipf !(used.(k))
      in
      (k, t.t_lit perms.(k).(rank)))

type outcome = {
  o_lat : float;
  o_hit : bool;
  o_ok : bool;
  o_tally : Comm.tally;
  o_pre : Comm.tally;
}

let sessions = [ "sh-hm"; "mal-hm" ]
let requests_per_session = 44

(* Eight passes give the 200 cache misses the p95 needs. *)
let min_service_passes = 8
(* Relative to the working directory: the run stays inside its checkout
   (run.py creates the directory). *)
let socket_path = ".orqbench-run/svc.sock"

let service_config ~seed =
  {
    (Service.default_config ~socket_path ()) with
    Service.sf = 0.001;
    seed;
    workers = 1;
    cache_capacity = 4096;
    pace = None;
    prewarm = [];
    verbose = false;
  }

(* Start the service and build both protocol backends (one cold EXPLAIN
   per session executes on the worker, bypassing the plan cache). *)
let service_start ~seed =
  let t0 = cpu_now () in
  let svc = Service.start (service_config ~seed) in
  let clients =
    List.map
      (fun proto ->
        let c = Client.connect ~retry_ms:5000 ("unix:" ^ socket_path) in
        (match Client.set_protocol c proto with
        | Ok _ -> ()
        | Error e -> failwith ("Hello " ^ proto ^ ": " ^ e));
        (match Client.explain c "SELECT r_regionkey, COUNT(*) AS n FROM region GROUP BY r_regionkey" with
        | Ok _ -> ()
        | Error (_, e) -> failwith ("warm-up " ^ proto ^ ": " ^ e));
        c)
      sessions
  in
  (svc, clients, cpu_now () -. t0)

let service_stop (svc, clients, _) =
  List.iter Client.close clients;
  Service.stop svc

(* A request's latency is the process CPU time spent between sending it
   and reading the reply: the worker executing it, or the other session's
   query ahead of it in the queue, plus both ends of the wire. *)
let run_session c ~refs reqs =
  List.map
    (fun (k, l) ->
      let t0 = cpu_now () in
      let r = try Client.query c (templates.(k).t_sql l) with e -> Error (Wire.Internal, Printexc.to_string e) in
      let dt = cpu_now () -. t0 in
      match r with
      | Ok (res : Wire.query_result) ->
          {
            o_lat = dt;
            o_hit = res.r_cache_hit;
            o_ok = (not res.r_truncated) && res.r_rows = Hashtbl.find refs (k, l);
            o_tally = res.r_tally;
            o_pre = res.r_pre;
          }
      | Error _ -> { o_lat = dt; o_hit = false; o_ok = false; o_tally = Comm.zero_tally; o_pre = Comm.zero_tally })
    reqs

let plain_rows (t : P.t) = P.rows_sorted t (P.schema t)

let planner_ms ~seed plain =
  let ctx = Ctx.create ~seed Ctx.Sh_hm in
  let db = Tpch_gen.share ctx plain in
  let cat = Tpch_gen.catalog db in
  let times =
    Array.to_list templates
    |> List.concat_map (fun t ->
           List.init 5 (fun i ->
               let sql = t.t_sql (t.t_lit i) in
               let t0 = now () in
               let plan, _ = Sql.parse_query cat sql in
               ignore (Sys.opaque_identity (Optimize.run plan));
               1000. *. (now () -. t0)))
  in
  Stats.median times

(* The service executes on its own worker's context, out of the tracer's
   reach; its cold path is [Service.execute_sql], which the traced run
   calls directly: the first literal of each template in each session's
   stream, on that session's protocol, untraced and then traced. *)
let trace_templates ~seed plain streams =
  let tracer = Tracer.create () in
  let plain_s = ref [] and traced_s = ref [] and share_s = ref 0. in
  List.iter2
    (fun proto reqs ->
      let kind = Result.get_ok (Service.proto_of_label proto) in
      let (ctx, db), c, k =
        Hostspeed.span (fun () ->
            let ctx = Ctx.create ~seed kind in
            (ctx, Tpch_gen.share ctx plain))
      in
      share_s := !share_s +. (k *. c);
      Array.iteri
        (fun k t ->
          let l = List.assoc k reqs in
          let sql = t.t_sql l in
          let qseed = Service.query_seed_for ~seed ~proto_label:proto ~sql in
          let exec () =
            let on0 = Comm.snapshot ctx.comm and pre0 = Comm.snapshot ctx.preproc in
            let t0 = now () in
            (match Service.execute_sql ~ctx ~db ~qseed ~max_rows:max_int sql with
            | Wire.Result _ -> ()
            | _ -> fail_check "traced %s (%s) returned an error" t.t_name proto);
            (now () -. t0, Comm.since ctx.comm on0, Comm.since ctx.preproc pre0)
          in
          let s0, on, pre = exec () in
          Tracer.install tracer ctx;
          Tracer.begin_span tracer;
          let s1, on', pre' =
            Fun.protect ~finally:(fun () -> Tracer.end_span tracer; Tracer.uninstall tracer) exec
          in
          if on <> on' || pre <> pre' then
            fail_check "traced %s (%s) metered differently from the untraced run" t.t_name proto;
          plain_s := s0 :: !plain_s;
          traced_s := s1 :: !traced_s)
        templates)
    sessions streams;
  List.iter (fun e -> fail_check "%s" e) (Tracer.check tracer);
  set "workloads.share_s" !share_s;
  set_operator_metrics tracer ~spans:1;
  set "trace.overhead_s"
    (List.fold_left ( +. ) 0. !traced_s -. List.fold_left ( +. ) 0. !plain_s);
  top3 tracer ~spans:1

type stream_run = {
  sr_cpu : float;
  sr_wall : float;
  sr_scale : float;  (** [Hostspeed] factor of the pass *)
  sr_all : outcome list;
  sr_stats : Wire.stats;
  sr_gc : Gc.stat * Gc.stat;
}

(* One pass: both sessions' streams against a freshly started service
   (empty plan cache), closed loop, one client thread per session. *)
let run_streams (_, clients, _) ~refs streams =
  let results = Array.make (List.length sessions) [] in
  let gc0 = Gc.quick_stat () in
  let start = now () and c0 = cpu_now () in
  let threads =
    List.mapi
      (fun i (c, reqs) -> Thread.create (fun () -> results.(i) <- run_session c ~refs reqs) ())
      (List.combine clients streams)
  in
  List.iter Thread.join threads;
  let sr_cpu = cpu_now () -. c0 and sr_wall = now () -. start in
  let gc1 = Gc.quick_stat () in
  {
    sr_cpu;
    sr_wall;
    sr_scale = 1.;
    sr_all = List.concat (Array.to_list results);
    sr_stats = Client.stats (List.hd clients);
    sr_gc = (gc0, gc1);
  }

let miss_tallies r =
  let misses = List.filter (fun o -> not o.o_hit) r.sr_all in
  let sum f = List.fold_left (fun acc o -> Comm.add_tally acc (f o)) Comm.zero_tally misses in
  (misses, sum (fun o -> o.o_tally), sum (fun o -> o.o_pre))

(* Passes for [seconds], at least [min_service_passes]; each starts its own
   service (empty plan cache), and every start is a set-up sample.
   [pass_s] is the median pass, [qps] its completed requests over it; the
   cold latency percentiles pool the misses of every pass. *)
let run_service ~seed ~stream_seed ~seconds ~traced =
  let streams =
    List.mapi (fun i _ -> stream ~seed:stream_seed ~session:i ~length:requests_per_session) sessions
  in
  let plain, c, k = Hostspeed.span (fun () -> Tpch_gen.generate ~seed 0.001) in
  set "workloads.generate_s" (k *. c);
  let t0 = now () in
  let refs = Hashtbl.create 512 in
  List.iter
    (List.iter (fun (k, l) ->
         if not (Hashtbl.mem refs (k, l)) then
           Hashtbl.replace refs (k, l) (plain_rows (templates.(k).t_ref plain l))))
    streams;
  set "plaintext.reference_s" (now () -. t0);
  let setups = ref [] in
  (* [f] on a freshly started service, inside one [Hostspeed] span whose
     factor scales both the start (a set-up sample) and [f]'s timings. *)
  let with_service f =
    let (x, s), _, k =
      Hostspeed.span (fun () ->
          let ((_, _, s) as live) = service_start ~seed in
          (Fun.protect ~finally:(fun () -> service_stop live) (fun () -> f live), s))
    in
    setups := (k *. s) :: !setups;
    (x, k)
  in
  let begin_ = now () in
  let rec loop runs peaks =
    let (r, k), peak = with_peak_rss (fun () -> with_service (fun live -> run_streams live ~refs streams)) in
    let runs = { r with sr_scale = k } :: runs and peaks = peak :: peaks in
    if another_pass ~start:begin_ ~seconds ~min:min_service_passes (List.length runs) then loop runs peaks
    else (List.rev runs, peaks)
  in
  let runs, peaks = loop [] [] in
  report_peak_rss peaks;
  while List.length !setups < setup_repeats do
    ignore (with_service ignore)
  done;
  set "setup_s" (Stats.median !setups);
  List.iter (fun r -> List.iter (fun o -> count_outcome o.o_ok) r.sr_all) runs;
  if !failed > 0 then
    fail_check "%d of %d service responses failed or differ from the plaintext reference" !failed
      !attempted;
  let scaled r = r.sr_cpu *. r.sr_scale in
  let first = List.hd runs in
  let _, on, pre = miss_tallies first in
  List.iter
    (fun r ->
      let _, on', pre' = miss_tallies r in
      if on <> on' || pre <> pre' then fail_check "metered tallies differ between passes")
    runs;
  let pass_s = Stats.median (List.map scaled runs) in
  set_comm_metrics ~pass_s on pre;
  set "cpu.pass_s" (Stats.median (List.map (fun r -> r.sr_cpu) runs));
  set "wall.pass_s" (Stats.median (List.map (fun r -> r.sr_wall) runs));
  set_host_metric ();
  (* The pass nearest the median reports the per-pass counters. *)
  let typical =
    List.fold_left
      (fun b r -> if Float.abs (scaled r -. pass_s) < Float.abs (scaled b -. pass_s) then r else b)
      first runs
  in
  let completed = List.length (List.filter (fun o -> o.o_ok) typical.sr_all) in
  set "qps" (float_of_int completed /. pass_s);
  let cold =
    List.concat_map
      (fun r ->
        let m, _, _ = miss_tallies r in
        List.map (fun o -> 1000. *. o.o_lat *. r.sr_scale) m)
      runs
  in
  (match (Stats.percentile ~min_tail:10 0.5 cold, Stats.percentile ~min_tail:10 0.95 cold) with
  | Some p50, Some p95 ->
      set "cold_p50_ms" p50;
      set "cold_p95_ms" p95
  | _ -> fail_check "only %d cache misses: the p95 needs 200" (List.length cold));
  let st = typical.sr_stats in
  let lookups = st.s_cache_hits + st.s_cache_misses in
  set "plan_cache.hit_ratio"
    (if lookups = 0 then 0. else float_of_int st.s_cache_hits /. float_of_int lookups);
  set "plan_cache.coalesced" (float_of_int st.s_coalesced);
  set "service.queue_wait_p50_ms" st.s_wait_p50_ms;
  set "service.exec_p50_ms" st.s_exec_p50_ms;
  set "service.exec_p95_ms" st.s_exec_p95_ms;
  set "jobqueue.rejected" (float_of_int st.s_rejected);
  let gc0, gc1 = typical.sr_gc in
  set "gc.alloc_mib"
    (8. *. (gc1.minor_words +. gc1.major_words -. gc1.promoted_words
           -. (gc0.minor_words +. gc0.major_words -. gc0.promoted_words)) /. 1048576.);
  set "gc.promoted_mib" (8. *. (gc1.promoted_words -. gc0.promoted_words) /. 1048576.);
  set "gc.major_collections" (float_of_int (gc1.major_collections - gc0.major_collections));
  if traced then begin
    set "planner.plan_ms" (planner_ms ~seed plain);
    trace_templates ~seed plain streams
  end;
  [
    ("passes", string_of_int (List.length runs));
    ("pass_scaled_s", json_list (List.map scaled runs));
    ("pass_cpu_s", json_list (List.map (fun r -> r.sr_cpu) runs));
    ("pass_wall_s", json_list (List.map (fun r -> r.sr_wall) runs));
    ("requests", string_of_int (List.length typical.sr_all));
    ("cold_samples", string_of_int (List.length cold));
  ]

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let workload_names = List.map fst suites @ [ "service-mix" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let stream_seed = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workload_names);
      ("--seed", Arg.Set_int seed, " TPC-H generator seed");
      ("--stream-seed", Arg.Int (fun s -> stream_seed := Some s), " service request-stream seed (default: --seed)");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe [options]";
  if not (List.mem !workload workload_names) then begin
    prerr_endline ("orqbench: --workload must be one of " ^ String.concat ", " workload_names);
    exit 2
  end;
  let traced = !trace = 1 in
  let seed = !seed and stream_seed = Option.value !stream_seed ~default:!seed in
  let details =
    try
      match List.assoc_opt !workload suites with
      | Some s -> run_suite s ~seed ~seconds:!seconds ~traced
      | None -> run_service ~seed ~stream_seed ~seconds:!seconds ~traced
    with e ->
      fail_check "workload aborted: %s" (Printexc.to_string e);
      []
  in
  let env =
    [
      ("workload", json_str !workload);
      ("seed", string_of_int seed);
      ("stream_seed", string_of_int stream_seed);
      ("seconds", json_num !seconds);
      ("trace", string_of_int !trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("cpus_allowed", json_str (cpus_allowed ()));
      ("ocaml", json_str Sys.ocaml_version);
      ("domains", string_of_int (Parallel.get_num_domains ()));
      ("chunk_rows", string_of_int (Chunkvec.chunk_rows ()));
      ("chunk_budget", string_of_int (Chunkvec.budget ()));
      ("streaming", string_of_bool (Chunkvec.streaming_enabled ()));
      ("commit", json_str (Option.value (Sys.getenv_opt "ORQBENCH_COMMIT") ~default:"unavailable"));
      ("lib_digest", json_str (source_digest "lib"));
    ]
    @ details
  in
  print_endline (json_obj [ ("env", json_obj env) ]);
  set "failed_frac" (if !attempted = 0 then 1. else float_of_int !failed /. float_of_int !attempted);
  let wanted = if traced then Catalog.per_layer else Catalog.end_to_end in
  let fields =
    List.filter_map
      (fun (name, unit) ->
        if not (Stats.valid_name name && Stats.valid_unit unit) then
          fail_check "metric %s (%s) breaks the naming rules" name unit;
        match Hashtbl.find_opt metrics name with
        | Some v -> Some (name, json_obj [ ("value", json_num v); ("unit", json_str unit) ])
        | None when traced -> Some (name, json_obj [ ("value", "0"); ("unit", json_str unit) ])
        | None ->
            if name <> "peak_rss_mib" then fail_check "end-to-end metric %s was not measured" name;
            None)
      wanted
  in
  let correct = !problems = [] && !failed = 0 && !attempted > 0 in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int (max 1 !attempted));
         ("failed", string_of_int (if !attempted = 0 then 1 else !failed));
         ("metrics", json_obj fields);
       ]);
  exit (if correct then 0 else 1)
