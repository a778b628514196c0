(** [micro-kernels] — microbenchmark of the Vec kernel layer and the fused
    MPC hot-path kernels, across domain counts, with allocation tracking.

    Emits machine-readable [BENCH_kernels.json] (op, n, domains,
    ns/element, allocated bytes/element via [Gc.allocated_bytes]) so future
    PRs have a perf trajectory, plus "seed"-style baselines: the closure-
    based [Array.init] map2 the kernels replaced, and the unfused Beaver /
    rep3 recombination chains, for regression and allocation-ratio
    comparisons.

    It also measures the packed single-bit share lanes ([Share.flags], 63
    flags per word) against the width-1 word primitives they replace —
    interactive AND, XOR and opening under SH-HM at the largest size — and
    exits 1 unless the packed AND is at least 8x cheaper per element.

    Quick mode ([--quick], used by [make check]) shrinks sizes and
    iteration budgets to a few seconds while still exercising the
    parallel dispatch path. *)

open Orq_util
open Orq_proto

type entry = {
  op : string;
  n : int;
  domains : int;
  ns_per_elt : float;
  alloc_b_per_elt : float;
}

(* Sizes must clear 2x [Parallel.min_chunk] (= 131072) or the pool never
   splits work across domains and the multi-domain speedup rows measure
   pure dispatch overhead (< 1.0x). *)
let sizes ~quick = if quick then [ 131_072 ] else [ 131_072; 1_048_576 ]
let domain_counts ~quick = if quick then [ 1; 2 ] else [ 1; 2; 4 ]

(* Measure [f] over enough iterations for a stable per-element figure;
   returns (ns/element, allocated bytes/element). Takes the best of three
   timed blocks, each started from a collected heap — a single mean is
   easily skewed by a major-GC slice landing inside one block or by
   scheduler noise on a shared host. *)
let measure ~quick ~n (f : unit -> unit) : float * float =
  f ();
  (* warm-up: page in inputs, spin up the pool *)
  let t0 = Unix.gettimeofday () in
  f ();
  let once = Unix.gettimeofday () -. t0 in
  let target = if quick then 0.02 else 0.08 in
  let iters = max 3 (min 2000 (int_of_float (target /. max 1e-6 once))) in
  let best = ref infinity and alloc = ref 0. in
  for _rep = 1 to 3 do
    Gc.full_major ();
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    alloc := Gc.allocated_bytes () -. a0;
    if dt < !best then best := dt
  done;
  let fi = float_of_int iters and fn = float_of_int n in
  (!best /. fi /. fn *. 1e9, !alloc /. fi /. fn)

(* ---- seed-style baselines (what the kernel layer replaced) ---- *)

let naive_map2 f a b = Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let naive_beaver_arith ~tc ~d ~tb ~e ~ta ~with_de =
  let add = naive_map2 ( + ) and mul = naive_map2 ( * ) in
  let open_terms = add (mul d tb) (mul e ta) in
  let base = add tc open_terms in
  if with_de then add base (mul d e) else base

let naive_rep3_arith ~xi ~yi ~xj ~yj ~alpha =
  let add = naive_map2 ( + ) and mul = naive_map2 ( * ) in
  add (add (add (mul xi yi) (mul xi yj)) (mul xj yi)) alpha

(* ---- the benchmark matrix ---- *)

(* Packed flag lanes vs word-per-flag at [n] (SH-HM, whose interactive
   AND draws randomness per word): (op, packed, word) measurements. *)
let flag_lanes ~quick n =
  let ctx = Ctx.create ~seed:21 Ctx.Sh_hm in
  let bits seed = Array.init n (fun i -> ((i * 73) lxor seed) land 1) in
  let x = Mpc.share_b ctx (bits 1) and y = Mpc.share_b ctx (bits 2) in
  let xf = Share.pack_flags x and yf = Share.pack_flags y in
  let m f = measure ~quick ~n (fun () -> ignore (f ())) in
  [
    ( "band1",
      m (fun () -> Mpc.band_f ctx xf yf),
      m (fun () -> Mpc.band ~width:1 ctx x y) );
    ("xor1", m (fun () -> Mpc.xor_f xf yf), m (fun () -> Mpc.xor x y));
    ( "open1",
      m (fun () -> Mpc.open_f ctx xf),
      m (fun () -> Mpc.open_ ~width:1 ctx x) );
  ]

let run ~quick () =
  let sizes = sizes ~quick and domain_counts = domain_counts ~quick in
  let measure = measure ~quick in
  Bench_util.section
    "micro-kernels: Vec/fused kernel throughput and allocations";
  Printf.printf
    "host: %d hardware domain(s) recommended; pool lanes under test: %s\n%!"
    (Domain.recommended_domain_count ())
    (String.concat "," (List.map string_of_int domain_counts));
  let saved_domains = Parallel.get_num_domains () in
  let saved_chunk = Parallel.get_min_chunk () in
  let entries = ref [] in
  let record op n domains (ns, ab) =
    entries := { op; n; domains; ns_per_elt = ns; alloc_b_per_elt = ab } :: !entries;
    Bench_util.row "  %-22s n=%-8d domains=%d  %8.2f ns/elt  %8.2f B/elt" op n
      domains ns ab
  in
  let prg = Prg.create 0xBE7C4 in
  List.iter
    (fun n ->
      let a = Prg.words prg n
      and b = Prg.words prg n
      and c = Prg.words prg n
      and d = Prg.words prg n
      and e = Prg.words prg n in
      let perm = Orq_shuffle.Localperm.random prg n in
      let dst = Array.make n 0 in
      (* domain-count sweep over the parallelized kernels *)
      List.iter
        (fun dn ->
          Parallel.set_num_domains dn;
          record "mul" n dn (measure ~n (fun () -> ignore (Vec.mul a b)));
          record "band" n dn (measure ~n (fun () -> ignore (Vec.band a b)));
          record "add" n dn (measure ~n (fun () -> ignore (Vec.add a b)));
          record "xor" n dn (measure ~n (fun () -> ignore (Vec.xor a b)));
          record "gather" n dn (measure ~n (fun () -> ignore (Vec.gather a perm)));
          record "scatter" n dn
            (measure ~n (fun () -> ignore (Vec.scatter a perm)));
          record "apply_perm" n dn
            (measure ~n (fun () -> ignore (Parallel.apply_perm a perm)));
          record "prefix_sum" n dn
            (measure ~n (fun () -> ignore (Vec.prefix_sum a)));
          record "beaver_fused" n dn
            (measure ~n (fun () ->
                 ignore
                   (Vec.beaver_arith ~tc:a ~d:b ~tb:c ~e:d ~ta:e ~with_de:true)));
          record "rep3_fused" n dn
            (measure ~n (fun () ->
                 Array.fill dst 0 n 0;
                 Vec.rep3_arith_into dst ~xi:a ~yi:b ~xj:c ~yj:d)))
        domain_counts;
      (* seed-style baselines, inherently sequential: domains = 1 *)
      Parallel.set_num_domains 1;
      record "mul_seed" n 1
        (measure ~n (fun () -> ignore (naive_map2 ( * ) a b)));
      record "band_seed" n 1
        (measure ~n (fun () -> ignore (naive_map2 ( land ) a b)));
      record "beaver_unfused" n 1
        (measure ~n (fun () ->
             ignore
               (naive_beaver_arith ~tc:a ~d:b ~tb:c ~e:d ~ta:e ~with_de:true)));
      record "rep3_unfused" n 1
        (measure ~n (fun () ->
             ignore (naive_rep3_arith ~xi:a ~yi:b ~xj:c ~yj:d ~alpha:e))))
    sizes;
  let nmax = List.fold_left max 0 sizes in
  (* packed flag lanes, at 1 domain like the baselines *)
  List.iter
    (fun (op, packed, word) ->
      record (op ^ "_packed") nmax 1 packed;
      record (op ^ "_word") nmax 1 word)
    (flag_lanes ~quick nmax);
  Parallel.set_num_domains saved_domains;
  Parallel.set_min_chunk saved_chunk;
  let entries = List.rev !entries in
  (* ---- summary ratios ---- *)
  let find op n dn =
    List.find_opt (fun r -> r.op = op && r.n = n && r.domains = dn) entries
  in
  let dmax = List.fold_left max 1 domain_counts in
  let ratio num den =
    match (num, den) with
    | Some a, Some b when b.ns_per_elt > 0. -> a.ns_per_elt /. b.ns_per_elt
    | _ -> nan
  in
  let alloc_ratio num den =
    match (num, den) with
    | Some a, Some b when b.alloc_b_per_elt > 0. ->
        a.alloc_b_per_elt /. b.alloc_b_per_elt
    | _ -> nan
  in
  let speedup_mul = ratio (find "mul" nmax 1) (find "mul" nmax dmax) in
  let speedup_band = ratio (find "band" nmax 1) (find "band" nmax dmax) in
  let reg_mul = ratio (find "mul" nmax 1) (find "mul_seed" nmax 1) in
  let reg_band = ratio (find "band" nmax 1) (find "band_seed" nmax 1) in
  let beaver_allocs =
    alloc_ratio (find "beaver_unfused" nmax 1) (find "beaver_fused" nmax 1)
  in
  let rep3_allocs =
    alloc_ratio (find "rep3_unfused" nmax 1) (find "rep3_fused" nmax 1)
  in
  let packed_speedup op =
    ratio (find (op ^ "_word") nmax 1) (find (op ^ "_packed") nmax 1)
  in
  let flag_speedups =
    List.map (fun op -> (op, packed_speedup op)) [ "band1"; "xor1"; "open1" ]
  in
  (* the acceptance bar: interactive AND at least 8x cheaper per element *)
  let band1_pass = packed_speedup "band1" >= 8.0 in
  Bench_util.row "summary (n=%d):" nmax;
  Bench_util.row "  mul  speedup x%d domains      %.2fx" dmax speedup_mul;
  Bench_util.row "  band speedup x%d domains      %.2fx" dmax speedup_band;
  Bench_util.row "  mul  kernel vs seed closure @1d  %.2fx slower (<1 = faster)"
    reg_mul;
  Bench_util.row "  band kernel vs seed closure @1d  %.2fx slower (<1 = faster)"
    reg_band;
  Bench_util.row "  Beaver unfused/fused allocations %.1fx" beaver_allocs;
  Bench_util.row "  rep3   unfused/fused allocations %.1fx" rep3_allocs;
  List.iter
    (fun (op, s) ->
      Bench_util.row "  %-5s packed flags vs word @1d      %.1fx faster" op s)
    flag_speedups;
  let open Json in
  let num = fixed 4 in
  let result r =
    Obj
      [ ("op", String r.op); ("n", Int r.n); ("domains", Int r.domains);
        ("ns_per_elt", num r.ns_per_elt);
        ("alloc_b_per_elt", num r.alloc_b_per_elt) ]
  in
  to_file "BENCH_kernels.json"
    (Obj
       [ ("schema", String "orq-kernels-v1"); ("quick", Bool quick);
         ("hardware_domains", Int (Domain.recommended_domain_count ()));
         ( "summary",
           Obj
             ([ (Printf.sprintf "speedup_mul_%dd" dmax, num speedup_mul);
                (Printf.sprintf "speedup_band_%dd" dmax, num speedup_band);
                ("slowdown_mul_1d_vs_seed", num reg_mul);
                ("slowdown_band_1d_vs_seed", num reg_band);
                ("alloc_ratio_beaver_unfused_over_fused", num beaver_allocs);
                ("alloc_ratio_rep3_unfused_over_fused", num rep3_allocs) ]
             @ List.map
                 (fun (op, s) -> ("speedup_" ^ op ^ "_packed_over_word", num s))
                 flag_speedups
             @ [ ("band1_speedup_gate_8x", Bool band1_pass) ]) );
         ("results", List (List.map result entries)) ]);
  Bench_util.row "wrote BENCH_kernels.json (%d measurements)"
    (List.length entries);
  if not band1_pass then begin
    Bench_util.row "GATE FAILED: packed band1 below 8x the word AND";
    exit 1
  end
