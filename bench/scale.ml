(** Out-of-core scaling benchmark: runs TPC-H pipelines with chunked
    share vectors under an explicit memory budget and gates the three
    claims the chunking layer makes (writes BENCH_scale.json):

    - overhead: with streaming on and no budget pressure, chunked wall
      clock stays within 1.3x of the monolithic engine (SF 0.01);
    - out-of-core: a large run (SF 0.1; quick mode 0.02, or ORQ_SCALE_SF)
      completes with the budget clamped to 1/4 of its own unlimited peak,
      actually spilling, with resident chunk bytes never above budget;
    - identity: every chunked run reproduces the monolithic engine's
      communication tally bit-for-bit and validates against the plaintext
      reference.

    The SF ladder at the end feeds EXPERIMENTS.md: peak resident bytes
    vs table bytes as the data outgrows a fixed-fraction budget.

    Quick mode (--quick) shrinks the big run to SF 0.02. *)

open Orq_proto
open Orq_workloads
open Bench_util
module Chunkvec = Orq_util.Chunkvec
module Comm = Orq_net.Comm
module Table = Orq_core.Table
module Json = Orq_util.Json

(* run [f] with the streaming knobs set, restoring the global state *)
let with_streaming ~rows ~budget f =
  let rows0 = Chunkvec.chunk_rows () in
  let budget0 = Chunkvec.budget () in
  let on0 = Chunkvec.streaming_enabled () in
  Chunkvec.set_chunk_rows rows;
  Chunkvec.set_budget budget;
  Fun.protect
    ~finally:(fun () ->
      Chunkvec.set_chunk_rows rows0;
      Chunkvec.set_budget budget0;
      Chunkvec.set_streaming on0)
    f

let with_monolithic f =
  let on0 = Chunkvec.streaming_enabled () in
  Chunkvec.set_streaming false;
  Fun.protect ~finally:(fun () -> Chunkvec.set_streaming on0) f

(* Physical share bytes of a table: every column plus the validity bit,
   one ring word per party vector per row. *)
let table_bytes (ctx : Ctx.t) (t : Table.t) =
  let n = Share.length t.Table.valid in
  let nvec = ctx.Ctx.parties in
  n * (List.length t.Table.cols + 1) * nvec * 8

let tally_match a b =
  a.Comm.t_rounds = b.Comm.t_rounds
  && a.Comm.t_bits = b.Comm.t_bits
  && a.Comm.t_messages = b.Comm.t_messages

(* One validated query run under the ambient streaming configuration.
   Fresh context and fresh catalog each time: sharing rides inside the
   measurement so peak bytes cover the catalog too. *)
let run_query kind plain qname =
  Gc.full_major ();
  let q = Tpch.find qname in
  let ctx = Ctx.create ~seed:5 kind in
  let (ok, _, _), m =
    measure ctx (fun () ->
        let mdb = Tpch_gen.share ctx plain in
        Query.validate q plain (q.Query.run mdb))
  in
  (ok, m)

(* Share the catalog (streaming on) just to size the named table. *)
let sized_table kind plain name =
  let ctx = Ctx.create ~seed:5 kind in
  let mdb = Tpch_gen.share ctx plain in
  let t, _ = Tpch_gen.catalog mdb name in
  table_bytes ctx t

type speed_row = {
  sp_name : string;
  sp_mono_s : float;
  sp_chunked_s : float;
  sp_tally_match : bool;
  sp_ok : bool;
}

type big_result = {
  bg_sf : float;
  bg_query : string;
  bg_table_bytes : int;
  bg_unlimited_peak : int;
  bg_budget : int;
  bg_budget_peak : int;
  bg_spills : int;
  bg_wall_s : float;
  bg_rss_peak_kb : int option;
  bg_tally_match : bool;
  bg_ok : bool;
}

type ladder_row = {
  ld_sf : float;
  ld_table_bytes : int;
  ld_budget : int;
  ld_peak : int;
  ld_spills : int;
  ld_wall_s : float;
  ld_ok : bool;
}

let run ~quick () =
  let kind = Ctx.Sh_hm in
  let sf_speed = 0.01 in
  let sf_big =
    match Sys.getenv_opt "ORQ_SCALE_SF" with
    | Some s -> float_of_string s
    | None -> if quick then 0.02 else 0.1
  in
  let ladder_sfs =
    if quick then [ 0.005; 0.01; 0.02 ] else [ 0.02; 0.05; 0.1 ]
  in
  section
    (Printf.sprintf
       "Out-of-core scaling (%s): overhead @ SF %g, budgeted run @ SF %g%s"
       (Ctx.kind_label kind) sf_speed sf_big
       (if quick then ", quick" else ""));

  (* ---- phase 1: streaming overhead at a memory-comfortable size ---- *)
  let plain_speed = Tpch_gen.generate ~seed:99 sf_speed in
  let speed_queries = [ "Q1"; "Q6" ] in
  hdr "%-6s %10s %10s %7s %6s %3s" "query" "mono" "chunked" "ratio" "tally"
    "ok";
  let speed =
    List.map
      (fun qname ->
        let ok_m, mm =
          with_monolithic (fun () -> run_query kind plain_speed qname)
        in
        let ok_c, mc =
          with_streaming ~rows:8192 ~budget:0 (fun () ->
              run_query kind plain_speed qname)
        in
        let r =
          {
            sp_name = qname;
            sp_mono_s = mm.wall_s;
            sp_chunked_s = mc.wall_s;
            sp_tally_match = tally_match mm.online mc.online;
            sp_ok = ok_m && ok_c;
          }
        in
        hdr "%-6s %10s %10s %6.2fx %6s %3s" qname (pretty_time mm.wall_s)
          (pretty_time mc.wall_s)
          (mc.wall_s /. mm.wall_s)
          (if r.sp_tally_match then "yes" else "NO")
          (if r.sp_ok then "ok" else "NO");
        r)
      speed_queries
  in
  let speed_ratio =
    List.fold_left (fun a r -> a +. r.sp_chunked_s) 0. speed
    /. List.fold_left (fun a r -> a +. r.sp_mono_s) 0. speed
  in
  hdr "aggregate chunked/mono wall ratio: %.2fx (gate <= 1.30x)" speed_ratio;

  (* ---- phase 2: the big run under a real budget ---- *)
  let plain_big = Tpch_gen.generate ~seed:99 sf_big in
  let bq = "Q1" in
  let tbytes =
    with_streaming ~rows:8192 ~budget:0 (fun () ->
        sized_table kind plain_big "lineitem")
  in
  hdr "\nbig run: %s @ SF %g (lineitem %.1f MiB of shares)" bq sf_big
    (float_of_int tbytes /. 1024. /. 1024.);
  let ok_u, mu =
    with_streaming ~rows:8192 ~budget:0 (fun () ->
        run_query kind plain_big bq)
  in
  let w = mu.peak_chunk_bytes in
  let budget = max 1 (w / 4) in
  hdr "unlimited streaming peak: %.1f MiB -> budget clamped to %.1f MiB"
    (float_of_int w /. 1024. /. 1024.)
    (float_of_int budget /. 1024. /. 1024.);
  let ok_b, mb =
    with_streaming ~rows:8192 ~budget (fun () ->
        run_query kind plain_big bq)
  in
  let big =
    {
      bg_sf = sf_big;
      bg_query = bq;
      bg_table_bytes = tbytes;
      bg_unlimited_peak = w;
      bg_budget = budget;
      bg_budget_peak = mb.peak_chunk_bytes;
      bg_spills = mb.spills;
      bg_wall_s = mb.wall_s;
      bg_rss_peak_kb = mb.rss_peak_kb;
      bg_tally_match = tally_match mu.online mb.online;
      bg_ok = ok_u && ok_b;
    }
  in
  hdr
    "budgeted run: %s | peak %.1f MiB (budget %.1f) | %d spills | tally %s \
     | %s"
    (pretty_time big.bg_wall_s)
    (float_of_int big.bg_budget_peak /. 1024. /. 1024.)
    (float_of_int big.bg_budget /. 1024. /. 1024.)
    big.bg_spills
    (if big.bg_tally_match then "identical" else "MISMATCH")
    (if big.bg_ok then "validated" else "VALIDATION FAILED");

  (* ---- phase 3: SF ladder at a fixed budget fraction (Q6) ---- *)
  hdr "\nladder (Q6, budget = table/4):";
  hdr "%-8s %12s %12s %7s %8s %10s" "sf" "table MiB" "peak MiB" "spills"
    "wall" "peak/table";
  let ladder =
    List.map
      (fun sf ->
        let plain = Tpch_gen.generate ~seed:99 sf in
        let tb =
          with_streaming ~rows:8192 ~budget:0 (fun () ->
              sized_table kind plain "lineitem")
        in
        let budget = max 1 (tb / 4) in
        let ok, m =
          with_streaming ~rows:8192 ~budget (fun () ->
              run_query kind plain "Q6")
        in
        let r =
          {
            ld_sf = sf;
            ld_table_bytes = tb;
            ld_budget = budget;
            ld_peak = m.peak_chunk_bytes;
            ld_spills = m.spills;
            ld_wall_s = m.wall_s;
            ld_ok = ok;
          }
        in
        hdr "%-8g %12.1f %12.1f %7d %8s %9.2f%%" sf
          (float_of_int tb /. 1024. /. 1024.)
          (float_of_int r.ld_peak /. 1024. /. 1024.)
          r.ld_spills (pretty_time r.ld_wall_s)
          (100. *. float_of_int r.ld_peak /. float_of_int tb);
        r)
      ladder_sfs
  in

  (* ---- gates ---- *)
  let speed_pass =
    speed_ratio <= 1.30
    && List.for_all (fun r -> r.sp_ok && r.sp_tally_match) speed
  in
  (* the store guarantees budget plus the pinned working set (chunks an
     active operator holds pinned are not evictable): allow 10% slack *)
  let within budget peak = peak <= budget + (budget / 10) in
  let big_pass =
    big.bg_ok && big.bg_tally_match && big.bg_spills > 0
    && within big.bg_budget big.bg_budget_peak
    && big.bg_budget < big.bg_table_bytes
  in
  let ladder_pass =
    List.for_all (fun r -> r.ld_ok && within r.ld_budget r.ld_peak) ladder
  in
  if not speed_pass then
    hdr "SPEED GATE FAILED: ratio %.2fx or a validation/tally failure"
      speed_ratio;
  if not big_pass then hdr "BIG-RUN GATE FAILED (see above)";
  if not ladder_pass then hdr "LADDER GATE FAILED (peak above budget + slack)";

  let open Json in
  let speed_row r =
    Obj
      [ ("name", String r.sp_name); ("mono_s", fixed 3 r.sp_mono_s);
        ("chunked_s", fixed 3 r.sp_chunked_s);
        ("tally_match", Bool r.sp_tally_match); ("validated", Bool r.sp_ok) ]
  in
  let ladder_row r =
    Obj
      [ ("sf", Float r.ld_sf); ("table_bytes", Int r.ld_table_bytes);
        ("budget_bytes", Int r.ld_budget); ("peak_bytes", Int r.ld_peak);
        ("spills", Int r.ld_spills); ("wall_s", fixed 3 r.ld_wall_s);
        ("validated", Bool r.ld_ok) ]
  in
  to_file "BENCH_scale.json"
    (Obj
       [ ("protocol", String (Ctx.kind_label kind)); ("quick", Bool quick);
         ( "speed",
           Obj
             [ ("sf", Float sf_speed); ("chunk_rows", Int 8192);
               ("queries", List (List.map speed_row speed));
               ("aggregate_ratio", fixed 3 speed_ratio);
               ("gate_ratio", Float 1.30); ("pass", Bool speed_pass) ] );
         ( "big",
           Obj
             [ ("sf", Float sf_big); ("query", String big.bg_query);
               ("table_bytes", Int big.bg_table_bytes);
               ("unlimited_peak_bytes", Int big.bg_unlimited_peak);
               ("budget_bytes", Int big.bg_budget);
               ("budget_peak_bytes", Int big.bg_budget_peak);
               ("spills", Int big.bg_spills); ("wall_s", fixed 3 big.bg_wall_s);
               ( "rss_peak_kb",
                 match big.bg_rss_peak_kb with
                 | Some kb -> Int kb
                 | None -> Null );
               ("tally_match", Bool big.bg_tally_match);
               ("validated", Bool big.bg_ok); ("pass", Bool big_pass) ] );
         ("ladder", List (List.map ladder_row ladder));
         ("pass", Bool (speed_pass && big_pass && ladder_pass)) ]);
  hdr "wrote BENCH_scale.json";
  if not (speed_pass && big_pass && ladder_pass) then exit 1
