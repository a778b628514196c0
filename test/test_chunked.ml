(** Out-of-core chunked share vectors: the chunked layer and the chunked
    pipelines must be value- and traffic-identical to the monolithic
    engine — at chunk sizes that do and do not divide the row count, and
    under a spill-forcing tiny memory budget. *)

module Chunkvec = Orq_util.Chunkvec
module Vec = Orq_util.Vec
module Comm = Orq_net.Comm
module Permops = Orq_shuffle.Permops
module Sortwrap = Orq_sort.Sortwrap
module Tablesort = Orq_core.Tablesort
module Localperm = Orq_shuffle.Localperm
module Tpch = Orq_workloads.Tpch
module Tpch_gen = Orq_workloads.Tpch_gen
open Orq_proto

let vec = Alcotest.(array int)

(* run [f] with the streaming knobs set, restoring the global state *)
let with_streaming ?(rows = 7) ?budget f =
  let rows0 = Chunkvec.chunk_rows () in
  let budget0 = Chunkvec.budget () in
  let on0 = Chunkvec.streaming_enabled () in
  Chunkvec.set_chunk_rows rows;
  (match budget with Some b -> Chunkvec.set_budget b | None -> ());
  Fun.protect
    ~finally:(fun () ->
      Chunkvec.set_chunk_rows rows0;
      Chunkvec.set_budget budget0;
      Chunkvec.set_streaming on0)
    f

let rand_array st n = Array.init n (fun _ -> Random.State.int st 100_000)

(* i * 13 + 5 mod n is a permutation whenever gcd(13, n) = 1 *)
let test_perm n = Array.init n (fun i -> ((i * 13) + 5) mod n)

let tally_eq name (a : Comm.tally) (b : Comm.tally) =
  Alcotest.(check int) (name ^ ": rounds") a.Comm.t_rounds b.Comm.t_rounds;
  Alcotest.(check int) (name ^ ": bits") a.Comm.t_bits b.Comm.t_bits;
  Alcotest.(check int) (name ^ ": messages") a.Comm.t_messages b.Comm.t_messages

let kind_name = function
  | Ctx.Sh_dm -> "Sh_dm"
  | Ctx.Sh_hm -> "Sh_hm"
  | Ctx.Mal_hm -> "Mal_hm"

let for_all_kinds f = List.iter f Ctx.all_kinds

(* ------------------------------------------------------------------ *)
(* Chunkvec unit tests                                                 *)
(* ------------------------------------------------------------------ *)

let test_parse_bytes () =
  Alcotest.(check int) "plain" 65536 (Chunkvec.parse_bytes "65536");
  Alcotest.(check int) "K" (512 * 1024) (Chunkvec.parse_bytes "512K");
  Alcotest.(check int) "k" 1024 (Chunkvec.parse_bytes "1k");
  Alcotest.(check int) "M" (64 * 1024 * 1024) (Chunkvec.parse_bytes "64M");
  Alcotest.(check int) "G" (2 * 1024 * 1024 * 1024) (Chunkvec.parse_bytes "2G");
  Alcotest.(check int) "empty" 0 (Chunkvec.parse_bytes "")

let test_roundtrip () =
  with_streaming ~rows:7 (fun () ->
      let st = Random.State.make [| 1 |] in
      List.iter
        (fun n ->
          let a = rand_array st n in
          let c = Chunkvec.of_array a in
          Alcotest.(check vec)
            (Printf.sprintf "to_array n=%d" n)
            a (Chunkvec.to_array c);
          Array.iteri
            (fun i v ->
              Alcotest.(check int) (Printf.sprintf "get n=%d i=%d" n i) v
                (Chunkvec.get c i))
            a)
        [ 0; 1; 6; 7; 14; 20; 21; 53 ])

let test_local_ops () =
  with_streaming ~rows:7 (fun () ->
      let st = Random.State.make [| 2 |] in
      (* 21 divides into 7-row chunks exactly; 53 does not *)
      List.iter
        (fun n ->
          let tag s = Printf.sprintf "%s n=%d" s n in
          let a = rand_array st n and b = rand_array st n in
          let ca = Chunkvec.of_array a and cb = Chunkvec.of_array b in
          let p = test_perm n in
          Alcotest.(check vec) (tag "gather")
            (Array.map (fun j -> a.(j)) p)
            (Chunkvec.to_array (Chunkvec.gather ca p));
          let scat = Array.make n 0 in
          Array.iteri (fun i j -> scat.(j) <- a.(i)) p;
          Alcotest.(check vec) (tag "scatter") scat
            (Chunkvec.to_array (Chunkvec.scatter ca p));
          Alcotest.(check vec) (tag "sub")
            (Array.sub a 3 (n - 5))
            (Chunkvec.to_array (Chunkvec.sub ca 3 (n - 5)));
          Alcotest.(check vec) (tag "append") (Array.append a b)
            (Chunkvec.to_array (Chunkvec.append ca cb));
          Alcotest.(check vec) (tag "map")
            (Array.map (fun x -> (x * 2) + 1) a)
            (Chunkvec.to_array
               (Chunkvec.map (Array.map (fun x -> (x * 2) + 1)) ca));
          Alcotest.(check vec) (tag "map2") (Array.map2 ( + ) a b)
            (Chunkvec.to_array (Chunkvec.map2 (Array.map2 ( + )) ca cb));
          let ps = Array.copy a in
          Vec.prefix_sum_inplace ps;
          Alcotest.(check vec) (tag "prefix_sum") ps
            (Chunkvec.to_array (Chunkvec.prefix_sum ca)))
        [ 21; 53 ])

let test_append_reuse () =
  with_streaming ~rows:7 (fun () ->
      let st = Random.State.make [| 3 |] in
      let a = Chunkvec.of_array (rand_array st 21) in
      let b = Chunkvec.of_array (rand_array st 14) in
      let c = Chunkvec.append a b in
      (* a's chunks are aligned to the result granularity: reused, not
         copied — the append fix satellite *)
      let ia = Chunkvec.chunk_ids a and ic = Chunkvec.chunk_ids c in
      Alcotest.(check int) "chunk count" 5 (Array.length ic);
      Array.iteri
        (fun i id -> Alcotest.(check int) "prefix chunk reused" id ic.(i))
        ia)

let test_spill () =
  with_streaming ~rows:7 ~budget:(2 * 7 * 8) (fun () ->
      let before = Chunkvec.stats () in
      let st = Random.State.make [| 4 |] in
      let a = rand_array st 70 in
      let c = Chunkvec.of_array a in
      let after = Chunkvec.stats () in
      Alcotest.(check bool) "spills happened" true
        (after.Chunkvec.st_spills > before.Chunkvec.st_spills);
      Alcotest.(check bool) "tracked bytes within budget" true
        (Chunkvec.live_bytes () <= 2 * 7 * 8);
      Alcotest.(check vec) "values survive spill + fault" a
        (Chunkvec.to_array c);
      let after2 = Chunkvec.stats () in
      Alcotest.(check bool) "faulted back from disk" true
        (after2.Chunkvec.st_faults > before.Chunkvec.st_faults))

(* ------------------------------------------------------------------ *)
(* Share-level: chunked == monolithic, values and tallies              *)
(* ------------------------------------------------------------------ *)

let test_share_gather_scatter () =
  for_all_kinds @@ fun kind ->
  let n = 53 in
  let st = Random.State.make [| 5 |] in
  let x = rand_array st n in
  let p = test_perm n in
  let ctx = Ctx.create ~seed:11 kind in
  let s = Mpc.share_b ctx x in
  let g1 = Share.reconstruct (Share.gather s p) in
  let sc1 = Share.reconstruct (Share.scatter s p) in
  with_streaming ~rows:7 (fun () ->
      let before = Comm.snapshot ctx.Ctx.comm in
      let c = Share.park s in
      let g2 = Share.reconstruct_c (Share.gather_c c p) in
      let sc2 = Share.reconstruct_c (Share.scatter_c c p) in
      let tal = Comm.since ctx.Ctx.comm before in
      let tag s = Printf.sprintf "%s %s" s (kind_name kind) in
      Alcotest.(check vec) (tag "gather_c") g1 g2;
      Alcotest.(check vec) (tag "scatter_c") sc1 sc2;
      (* gather/scatter are local: no traffic in either shape *)
      tally_eq (tag "local ops silent") Comm.zero_tally tal)

let test_shuffle_table () =
  for_all_kinds @@ fun kind ->
  (* 56 divides into 7-row chunks; 53 does not *)
  List.iter
    (fun n ->
      let tag s = Printf.sprintf "%s %s n=%d" s (kind_name kind) n in
      let st = Random.State.make [| 6; n |] in
      let x = rand_array st n and y = rand_array st n in
      let ctx1 = Ctx.create ~seed:21 kind in
      let sx = Mpc.share_b ctx1 x and sy = Mpc.share_b ctx1 y in
      let before1 = Comm.snapshot ctx1.Ctx.comm in
      let out1 = Permops.shuffle_table ctx1 [ sx; sy ] in
      let tal1 = Comm.since ctx1.Ctx.comm before1 in
      let r1 = List.map Share.reconstruct out1 in
      with_streaming ~rows:7 (fun () ->
          (* same seed => same sampled permutation; per-chunk resharing
             draws the same amount of zero-sum noise in a different
             order, so reconstructions and tallies must match exactly *)
          let ctx2 = Ctx.create ~seed:21 kind in
          let cx = Share.park (Mpc.share_b ctx2 x) in
          let cy = Share.park (Mpc.share_b ctx2 y) in
          let before2 = Comm.snapshot ctx2.Ctx.comm in
          let out2 = Permops.shuffle_table_c ctx2 [ cx; cy ] in
          let tal2 = Comm.since ctx2.Ctx.comm before2 in
          let r2 = List.map Share.reconstruct_c out2 in
          List.iter2
            (fun a b -> Alcotest.(check vec) (tag "shuffle values") a b)
            r1 r2;
          tally_eq (tag "shuffle tally") tal1 tal2))
    [ 56; 53 ]

let test_sort () =
  for_all_kinds @@ fun kind ->
  List.iter
    (fun n ->
      let tag s = Printf.sprintf "%s %s n=%d" s (kind_name kind) n in
      let st = Random.State.make [| 8; n |] in
      let key = Array.init n (fun _ -> Random.State.int st 256) in
      let pay = rand_array st n in
      let ctx1 = Ctx.create ~seed:33 kind in
      let k1 = Mpc.share_b ctx1 key and p1 = Mpc.share_b ctx1 pay in
      let before1 = Comm.snapshot ctx1.Ctx.comm in
      let k1', ps1 = Sortwrap.sort ctx1 ~dir:Sortwrap.Asc ~w:8 k1 [ p1 ] in
      let tal1 = Comm.since ctx1.Ctx.comm before1 in
      let rk1 = Share.reconstruct k1' in
      let rp1 = List.map Share.reconstruct ps1 in
      with_streaming ~rows:7 (fun () ->
          let ctx2 = Ctx.create ~seed:33 kind in
          let k2 = Share.park (Mpc.share_b ctx2 key) in
          let p2 = Share.park (Mpc.share_b ctx2 pay) in
          let before2 = Comm.snapshot ctx2.Ctx.comm in
          let k2', ps2 = Sortwrap.sort_c ctx2 ~dir:Sortwrap.Asc ~w:8 k2 [ p2 ] in
          let tal2 = Comm.since ctx2.Ctx.comm before2 in
          Alcotest.(check vec) (tag "sorted key") rk1 (Share.reconstruct_c k2');
          List.iter2
            (fun a b ->
              Alcotest.(check vec) (tag "sorted carry") a
                (Share.reconstruct_c b))
            rp1 ps2;
          tally_eq (tag "sort tally") tal1 tal2))
    [ 56; 53 ]

(* Protocol 5 on one column is the one-column table: the wrapped
   monolithic call and a tracked multi-chunk column agree on values and
   tallies, and both move x.(i) to rho.(i). *)
let test_apply_elementwise () =
  for_all_kinds @@ fun kind ->
  List.iter
    (fun n ->
      let tag s = Printf.sprintf "%s %s n=%d" s (kind_name kind) n in
      let st = Random.State.make [| 9; n |] in
      let x = rand_array st n and rho = test_perm n in
      let ctx1 = Ctx.create ~seed:44 kind in
      let sx = Mpc.share_b ctx1 x and srho = Mpc.share_a ctx1 rho in
      let before1 = Comm.snapshot ctx1.Ctx.comm in
      let r1 = Share.reconstruct (Permops.apply_elementwise ctx1 sx srho) in
      let tal1 = Comm.since ctx1.Ctx.comm before1 in
      Alcotest.(check vec) (tag "rho(x)") (Localperm.apply x rho) r1;
      with_streaming ~rows:7 (fun () ->
          let ctx2 = Ctx.create ~seed:44 kind in
          let cx = Share.park (Mpc.share_b ctx2 x) in
          let srho2 = Mpc.share_a ctx2 rho in
          let before2 = Comm.snapshot ctx2.Ctx.comm in
          let out2 = Permops.apply_elementwise_table_c ctx2 [ cx ] srho2 in
          let tal2 = Comm.since ctx2.Ctx.comm before2 in
          Alcotest.(check vec) (tag "chunked rho(x)") r1
            (Share.reconstruct_c (List.hd out2));
          tally_eq (tag "apply_elementwise tally") tal1 tal2))
    [ 56; 53 ]

(* Multi-key TableSort (the join's sort): three keys of narrow widths, so
   ties on the leading keys exercise the composition of per-key
   permutations, one of them descending. Wrapped single-chunk columns and
   7-row tracked chunks must agree on values and tallies, and both must
   match a stable plaintext sort. *)
let test_sort_cols () =
  let widths = [ 2; 3; 4 ] in
  let orders = [ Tablesort.Asc; Tablesort.Desc; Tablesort.Asc ] in
  for_all_kinds @@ fun kind ->
  List.iter
    (fun n ->
      let tag s = Printf.sprintf "%s %s n=%d" s (kind_name kind) n in
      let st = Random.State.make [| 10; n |] in
      let keys =
        List.map
          (fun w -> Array.init n (fun _ -> Random.State.int st (1 lsl w)))
          widths
      in
      let pay = rand_array st n in
      let expect =
        let cmp i j =
          List.fold_left2
            (fun c k o ->
              if c <> 0 then c
              else
                let d = compare k.(i) k.(j) in
                if o = Tablesort.Desc then -d else d)
            0 keys orders
        in
        let idx = List.stable_sort cmp (List.init n Fun.id) in
        List.map (fun col -> Array.of_list (List.map (fun i -> col.(i)) idx))
          (keys @ [ pay ])
      in
      let run ctx lift =
        let ks =
          List.map2
            (fun (k, w) o -> (lift (Mpc.share_b ctx k), w, o))
            (List.combine keys widths) orders
        in
        let p = lift (Mpc.share_b ctx pay) in
        let before = Comm.snapshot ctx.Ctx.comm in
        let ks', ps' = Tablesort.sort_cols ctx ~keys:ks [ p ] in
        let tal = Comm.since ctx.Ctx.comm before in
        (List.map Share.reconstruct_c (ks' @ ps'), tal)
      in
      let r1, tal1 = run (Ctx.create ~seed:55 kind) Share.wrap in
      List.iter2 (fun a b -> Alcotest.(check vec) (tag "sorted") a b) expect r1;
      with_streaming ~rows:7 (fun () ->
          let r2, tal2 = run (Ctx.create ~seed:55 kind) Share.park in
          List.iter2
            (fun a b -> Alcotest.(check vec) (tag "chunked sorted") a b)
            r1 r2;
          tally_eq (tag "sort_cols tally") tal1 tal2))
    [ 56; 53 ]

(* ------------------------------------------------------------------ *)
(* Query-level: full TPC-H plans, streaming + tiny budget              *)
(* ------------------------------------------------------------------ *)

let plain = (Orq_workloads.Workload.suite_data ()).Orq_workloads.Workload.tpch

(* Q1: sort + group-by aggregation; Q6: filter + global aggregate;
   Q12: join + aggregation (exercises the oblivious join/agg stack) *)
let check_query qname kind =
  let tag s = Printf.sprintf "%s %s %s" qname (kind_name kind) s in
  let plain = Lazy.force plain in
  let q = Tpch.find qname in
  let ctx1 = Ctx.create ~seed:5 kind in
  let mdb1 = Tpch_gen.share ctx1 plain in
  let before1 = Comm.snapshot ctx1.Ctx.comm in
  let ok1, rows1, _ = Orq_workloads.Query.validate q plain (q.run mdb1) in
  let tal1 = Comm.since ctx1.Ctx.comm before1 in
  Alcotest.(check bool) (tag "monolithic ok") true ok1;
  (* chunked run under a budget small enough to force spilling *)
  with_streaming ~rows:64 ~budget:(32 * 1024) (fun () ->
      let sp0 = (Chunkvec.stats ()).Chunkvec.st_spills in
      let ctx2 = Ctx.create ~seed:5 kind in
      let mdb2 = Tpch_gen.share ctx2 plain in
      let before2 = Comm.snapshot ctx2.Ctx.comm in
      let ok2, rows2, _ = Orq_workloads.Query.validate q plain (q.run mdb2) in
      let tal2 = Comm.since ctx2.Ctx.comm before2 in
      Alcotest.(check bool) (tag "chunked ok") true ok2;
      Alcotest.(check (list (list int))) (tag "rows") rows1 rows2;
      tally_eq (tag "tally") tal1 tal2;
      Alcotest.(check bool) (tag "spilled under tiny budget") true
        ((Chunkvec.stats ()).Chunkvec.st_spills > sp0))

let test_queries () =
  for_all_kinds @@ fun kind ->
  List.iter (fun qname -> check_query qname kind) [ "Q1"; "Q6"; "Q12" ]

let suite =
  [
    Alcotest.test_case "parse_bytes" `Quick test_parse_bytes;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "local ops == monolithic" `Quick test_local_ops;
    Alcotest.test_case "append reuses chunks" `Quick test_append_reuse;
    Alcotest.test_case "spill + fault under budget" `Quick test_spill;
    Alcotest.test_case "share gather/scatter" `Quick test_share_gather_scatter;
    Alcotest.test_case "shuffle_table values+tally" `Quick test_shuffle_table;
    Alcotest.test_case "sort values+tally" `Quick test_sort;
    Alcotest.test_case "apply_elementwise values+tally" `Quick
      test_apply_elementwise;
    Alcotest.test_case "multi-key sort_cols values+tally" `Quick
      test_sort_cols;
    Alcotest.test_case "tpch queries streamed" `Slow test_queries;
  ]

let () = Alcotest.run "orq_chunked" [ ("chunked", suite) ]
