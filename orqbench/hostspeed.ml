(* Host speed reference.

   The benchmark runs on shared virtual CPUs. The host takes them away for
   whole scheduler slices (steal time, which CPU time excludes), and its
   other tenants slow memory-heavy code on them by 1.3-2x for tens of
   seconds at a time (which CPU time includes). A run of 30 s can sit
   entirely inside such a phase, so no statistic over one run's passes
   removes it.

   What does remove most of it is a fixed reference kernel, timed right
   before and right after every measured span: the span's CPU time is
   scaled by [nominal_s / mean (before, after)], i.e. reported in seconds
   of a host on which one reference sample takes [nominal_s]. The kernel
   is code of the benchmark, not of the engine, and never allocates, so a
   change to the engine (its code, its heap) moves the scaled time exactly
   as it moves the CPU time. It does what slows down with the engine: a
   random gather, and a stream of fresh 64 KiB arrays written through
   memory beyond the caches. On 2 vCPUs of a shared Xeon host, in 30 s
   runs, it took the spread (interquartile range over median) of
   join-chain's pass time over 8 seeds from 14% (median pass, raw CPU) to
   6%. The raw CPU and wall times and the reference
   samples themselves are reported beside every scaled figure. *)

(* CPU seconds of the whole process (every thread and domain). *)
let cpu_now () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* Nominal CPU seconds of one reference sample: about its median on a
   shared 2-vCPU Xeon host, where samples took 50-80 ms. Only ratios
   matter; the constant sets the unit. *)
let nominal_s = 0.06

let gather_n = 1 lsl 16
let chunk = 8192
let ring_n = 1 lsl 21

(* All buffers are allocated once, so a sample never allocates: its time
   does not depend on the engine's heap or on the GC. *)
let perm, src, dst, ring =
  let st = Random.State.make [| 7 |] in
  let perm = Array.init gather_n Fun.id in
  for i = gather_n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  ( perm,
    Array.init gather_n (fun _ -> Random.State.bits st),
    Array.make gather_n 0,
    Array.init ring_n (fun _ -> Random.State.bits st) )

let ring_pos = ref 0

(* A random gather over 512 KiB, 180 times; then 900 chunks of 64 KiB,
   each written from the previous one into the next slot of a 16 MiB
   ring, the way share arithmetic writes fresh arrays. *)
let kernel () =
  for r = 1 to 180 do
    for i = 0 to gather_n - 1 do
      Array.unsafe_set dst i
        (Array.unsafe_get dst i
        lxor ((Array.unsafe_get src (Array.unsafe_get perm i) * 0x9E3779B1) + r))
    done
  done;
  for _ = 1 to 900 do
    let prev = !ring_pos in
    let next = (prev + chunk) land (ring_n - 1) in
    for i = 0 to chunk - 1 do
      Array.unsafe_set ring (next + i)
        (((Array.unsafe_get ring (prev + i) * 0x9E3779B1) + 1)
        lxor Array.unsafe_get ring (prev + ((i * 7) land (chunk - 1))))
    done;
    ring_pos := next
  done

(* Every reference sample taken, in CPU seconds, newest first. *)
let samples = ref []

let sample () =
  let c0 = cpu_now () in
  kernel ();
  let s = cpu_now () -. c0 in
  samples := s :: !samples;
  s

(* The latest sample serves as the next span's "before" sample. *)
let last = ref None

(* [span f] runs [f] between two reference samples and returns its result,
   its CPU seconds and the factor that scales CPU seconds measured inside
   it to nominal seconds. *)
let span f =
  let r0 = match !last with Some r -> r | None -> sample () in
  let c0 = cpu_now () in
  let x = f () in
  let c = cpu_now () -. c0 in
  let r1 = sample () in
  last := Some r1;
  (x, c, nominal_s /. ((r0 +. r1) /. 2.))
