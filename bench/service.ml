(* Closed-loop throughput benchmark of the query service (DESIGN.md,
   "Query service"): an in-process server on a Unix-domain socket, [C]
   client threads each issuing queries back-to-back, measured as
   queries/sec and per-query latency percentiles over a matrix of
   (protocol, workers, concurrency, cache mode).

   Two cache modes bracket the service:
     - cold: cache off, pace=lan — every query runs the full oblivious
       plan through the worker pool, and each worker then holds its slot
       for the query's Netsim-modeled LAN time, reproducing the paper's
       network-bound deployment. Workers overlap their queries' network
       time, so cold throughput scales near-linearly with the pool.
     - hit: cache on, no pacing — the steady state of a repeated
       dashboard workload; responses replay from the plan cache in the
       session threads, bypassing the workers entirely.

   Every cold response at every worker count is checked byte-identical
   (rows and tallies) against a serial workers=1 reference — the
   concurrency upgrade must not perturb the oblivious transcript.

   Writes BENCH_service.json. --quick shrinks the matrix to
   a workers 1-vs-4 scaling gate (exits 1 below 2x); the full run gates
   8 workers at 4x. *)

module Service = Orq_service.Service
module Client = Orq_service.Client
module Wire = Orq_net.Wire

module Json = Orq_util.Json

let quick () =
  match Array.to_list Sys.argv with
  | [ _ ] -> false
  | [ _; "--quick" ] -> true
  | _ ->
      prerr_endline "usage: service.exe [--quick]";
      exit 2

let nproc () =
  try
    let ic = Unix.open_process_in "nproc 2>/dev/null" in
    let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
    ignore (Unix.close_process_in ic);
    n
  with _ -> 0

(* Small-table queries: their oblivious compute is a few milliseconds
   while their modeled network time (rounds x RTT) is tens of
   milliseconds — the regime the paper's deployments sit in, where the
   worker pool overlaps network time and cold throughput scales. *)
let queries =
  [|
    "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey";
    "SELECT s_nationkey, COUNT(*) AS n FROM supplier GROUP BY s_nationkey";
    "SELECT r_regionkey, COUNT(*) AS n FROM region GROUP BY r_regionkey";
    "SELECT n_nationkey, COUNT(*) AS n FROM nation GROUP BY n_nationkey";
  |]

let pace_profile () =
  match Sys.getenv_opt "ORQ_BENCH_PACE" with
  | Some "off" -> None
  | Some "wan" -> Some Orq_net.Netsim.wan
  | Some "geo" -> Some Orq_net.Netsim.geo
  | _ -> Some Orq_net.Netsim.lan

let pace_label () =
  match pace_profile () with
  | None -> "off"
  | Some p -> p.Orq_net.Netsim.label

type run = {
  proto : string;
  workers : int;
  concurrency : int;
  cached : bool;
  n_queries : int;
  wall_s : float;
  qps : float;
  p50_ms : float;
  p95_ms : float;
  mismatches : int;  (** cold responses differing from the w=1 reference *)
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float ((float_of_int (n - 1) *. p) +. 0.5)))

(* Reference responses per (proto, sql): captured from a serial cold
   execution, compared against every later cold response. *)
let reference : (string * string, Wire.query_result) Hashtbl.t =
  Hashtbl.create 16

let check_reference ~proto sql (r : Wire.query_result) =
  match Hashtbl.find_opt reference (proto, sql) with
  | None ->
      Hashtbl.replace reference (proto, sql) r;
      0
  | Some ref_r ->
      (* whole-payload equality: rows, cols, tallies, netsim estimates *)
      if r = ref_r then 0 else 1

let with_server ~sf ~proto ~workers ~cached f =
  let socket_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "orq-bench-%d-%d-%b.sock" (Unix.getpid ()) workers
         cached)
  in
  let kind =
    match Service.proto_of_label proto with
    | Ok k -> k
    | Error m -> failwith m
  in
  let cfg =
    {
      (Service.default_config ~socket_path ()) with
      Service.sf;
      workers;
      cache_capacity = (if cached then 64 else 0);
      max_jobs = 64;
      pace = (if cached then None else pace_profile ());
      prewarm = [ kind ];
    }
  in
  let srv = Service.start cfg in
  Fun.protect ~finally:(fun () -> Service.stop srv) @@ fun () ->
  f socket_path

(* One measured cell against an already-warm server. *)
let bench_cell ~proto ~workers ~cached ~concurrency ~per_client socket_path :
    run =
  let lat = Array.make (concurrency * per_client) 0. in
  let mism = Atomic.make 0 in
  let run_client ci =
    let c = Client.connect socket_path in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    (match Client.set_protocol c proto with
    | Ok _ -> ()
    | Error m -> failwith m);
    for i = 0 to per_client - 1 do
      let sql = queries.((ci + i) mod Array.length queries) in
      let t0 = Unix.gettimeofday () in
      match Client.query c sql with
      | Ok r ->
          lat.((ci * per_client) + i) <- Unix.gettimeofday () -. t0;
          if not cached then
            if check_reference ~proto sql r > 0 then Atomic.incr mism
      | Error (_, m) -> failwith ("bench query failed: " ^ m)
    done
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init concurrency (fun ci -> Thread.create run_client ci) in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  let n_queries = concurrency * per_client in
  Array.sort compare lat;
  {
    proto;
    workers;
    concurrency;
    cached;
    n_queries;
    wall_s;
    qps = float_of_int n_queries /. wall_s;
    p50_ms = percentile lat 0.5 *. 1e3;
    p95_ms = percentile lat 0.95 *. 1e3;
    mismatches = Atomic.get mism;
  }

(* Warm a server: every query once per worker-sized wave, so each worker
   builds its per-protocol backend (and the cache fills when enabled)
   before the measured window. Cold warm-up responses also seed/check the
   serial reference (the w=1 server warms first). *)
let warm ~proto ~workers ~cached socket_path =
  let wave = max workers 1 in
  let threads =
    List.init wave (fun _ ->
        Thread.create
          (fun () ->
            let c = Client.connect socket_path in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            (match Client.set_protocol c proto with
            | Ok _ -> ()
            | Error m -> failwith m);
            Array.iter
              (fun sql ->
                match Client.query c sql with
                | Ok r ->
                    if not cached then
                      ignore (check_reference ~proto sql r : int)
                | Error (_, m) -> failwith ("warm query failed: " ^ m))
              queries)
          ())
  in
  List.iter Thread.join threads

let () =
  let sf = 0.001 in
  let q = quick () in
  let protos = if q then [ "sh-hm" ] else [ "sh-hm"; "sh-dm"; "mal-hm" ] in
  let workers_list = if q then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let concurrencies = if q then [ 8 ] else [ 1; 4; 8; 16 ] in
  let gate_conc = if q then 8 else 16 in
  let gate_workers = if q then 4 else 8 in
  let gate_min = if q then 2.0 else 4.0 in
  let per_cold conc = max 4 (32 / conc) in
  let per_hit = if q then 20 else 50 in
  Printf.printf
    "service throughput benchmark (sf=%g, closed loop, cold pace=%s, \
     nproc=%d%s)\n\
     %!"
    sf (pace_label ()) (nproc ())
    (if q then ", quick" else "");
  Printf.printf "%-8s %3s %4s %-6s %10s %9s %9s %9s\n%!" "proto" "W" "C"
    "cache" "queries/s" "p50" "p95" "wall";
  let runs = ref [] in
  let emit r =
    runs := r :: !runs;
    Printf.printf "%-8s %3d %4d %-6s %10.1f %7.1fms %7.1fms %8.2fs%s\n%!"
      r.proto r.workers r.concurrency
      (if r.cached then "hit" else "cold")
      r.qps r.p50_ms r.p95_ms r.wall_s
      (if r.mismatches > 0 then
         Printf.sprintf "  !! %d TALLY MISMATCHES" r.mismatches
       else "")
  in
  List.iter
    (fun proto ->
      List.iter
        (fun workers ->
          (* cold: cache off, paced — one server per (proto, workers),
             all concurrency cells against it *)
          with_server ~sf ~proto ~workers ~cached:false (fun socket ->
              warm ~proto ~workers ~cached:false socket;
              List.iter
                (fun concurrency ->
                  emit
                    (bench_cell ~proto ~workers ~cached:false ~concurrency
                       ~per_client:(per_cold concurrency) socket))
                concurrencies);
          (* hit: cache on, unpaced replay from the session threads *)
          with_server ~sf ~proto ~workers ~cached:true (fun socket ->
              warm ~proto ~workers ~cached:true socket;
              List.iter
                (fun concurrency ->
                  emit
                    (bench_cell ~proto ~workers ~cached:true ~concurrency
                       ~per_client:per_hit socket))
                concurrencies))
        workers_list)
    protos;
  let runs = List.rev !runs in
  let total_mismatches = List.fold_left (fun a r -> a + r.mismatches) 0 runs in
  (* scaling summary: cold qps per worker count at the gate concurrency *)
  let cold_qps proto workers =
    match
      List.find_opt
        (fun r ->
          (not r.cached) && r.proto = proto && r.workers = workers
          && r.concurrency = gate_conc)
        runs
    with
    | Some r -> r.qps
    | None -> 0.
  in
  let speedups =
    List.map
      (fun proto ->
        let base = cold_qps proto 1 in
        let top = cold_qps proto gate_workers in
        (proto, base, top, if base > 0. then top /. base else 0.))
      protos
  in
  List.iter
    (fun (proto, base, top, s) ->
      Printf.printf
        "%-8s cold scaling @C=%d: %.1f qps (1 worker) -> %.1f qps (%d \
         workers) = %.2fx\n\
         %!"
        proto gate_conc base top gate_workers s)
    speedups;
  let open Json in
  let run r =
    Obj
      [ ("proto", String r.proto); ("workers", Int r.workers);
        ("concurrency", Int r.concurrency); ("cache", Bool r.cached);
        ("queries", Int r.n_queries); ("wall_s", fixed 4 r.wall_s);
        ("qps", fixed 2 r.qps); ("p50_ms", fixed 3 r.p50_ms);
        ("p95_ms", fixed 3 r.p95_ms); ("mismatches", Int r.mismatches) ]
  in
  let scaling (proto, base, top, s) =
    Obj
      [ ("proto", String proto); ("concurrency", Int gate_conc);
        ("qps_w1", fixed 2 base);
        (Printf.sprintf "qps_w%d" gate_workers, fixed 2 top);
        ("speedup", fixed 3 s) ]
  in
  to_file "BENCH_service.json"
    (Obj
       [ ("schema", String "orq-service-v2"); ("quick", Bool q);
         ("sf", Float sf); ("nproc", Int (nproc ()));
         ("pace", String (pace_label ()));
         ( "note",
           String
             "closed-loop qps over a Unix-domain socket; cold = full \
              oblivious execution, cache off, each worker holding its slot \
              for the query's modeled LAN time (network-bound regime: \
              workers overlap network time, so cold throughput scales with \
              the pool on any core count); hit = plan-cache replay in the \
              session threads. Every cold response is checked \
              byte-identical (rows + tallies) against the serial workers=1 \
              reference." );
         ("tally_mismatches", Int total_mismatches);
         ("results", List (List.map run runs));
         ("cold_scaling", List (List.map scaling speedups)) ]);
  Printf.printf "wrote BENCH_service.json (%d runs)\n%!" (List.length runs);
  if total_mismatches > 0 then begin
    Printf.eprintf
      "FAIL: %d cold responses differed from the serial reference\n"
      total_mismatches;
    exit 1
  end;
  let failed =
    List.filter (fun (_, base, _, s) -> base > 0. && s < gate_min) speedups
  in
  if failed <> [] then begin
    List.iter
      (fun (proto, _, _, s) ->
        Printf.eprintf
          "FAIL: %s cold speedup %.2fx at %d workers (need >= %.1fx)\n" proto
          s gate_workers gate_min)
      failed;
    exit 1
  end
