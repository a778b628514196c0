(* Unit tests of the benchmark's own helpers: the label-to-layer mapping
   against the labels lib/ actually pushes, the percentile sample-count
   rule, metric-name validation against BENCHMARK.json, the tracer's
   attribution invariants, and the host-speed reference. *)

module Comm = Orq_net.Comm
module Ctx = Orq_proto.Ctx
open Orqbench

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun n ->
         let p = Filename.concat dir n in
         if Sys.is_directory p then ml_files p
         else if Filename.check_suffix n ".ml" then [ p ]
         else [])

(* Every string literal passed to [with_label] in lib/. *)
let lib_labels () =
  let re = Str.regexp "with_label[ \n]+[^\"\n]*\"\\([a-z_]+\\)\"" in
  let found = Hashtbl.create 32 in
  List.iter
    (fun f ->
      let s = read_file f in
      let rec scan pos =
        match Str.search_forward re s pos with
        | i ->
            Hashtbl.replace found (Str.matched_group 1 s) ();
            scan (i + 1)
        | exception Not_found -> ()
      in
      scan 0)
    (ml_files "../lib");
  Hashtbl.fold (fun k () acc -> k :: acc) found [] |> List.sort compare

let strings = Alcotest.(list string)

let test_labels_match_lib () =
  let lib = lib_labels () in
  Alcotest.(check int) "18 label literals in lib/" 18 (List.length lib);
  Alcotest.check strings "mapping covers exactly lib/'s labels" lib
    (List.sort compare (List.map fst Layers.known));
  List.iter
    (fun l ->
      let k = Layers.key_of_stack l in
      Alcotest.(check bool) (l ^ " maps to a layer") true
        (k <> Layers.other && k <> Layers.unlabeled))
    lib

let test_key_of_stack () =
  let check stack want = Alcotest.(check string) stack want (Layers.key_of_stack stack) in
  check "" "core.unlabeled";
  check "filter" "core.filter";
  check "join/radixsort/applyperm" "shuffle.applyperm";
  check "aggregate/quicksort" "sort.quicksort";
  check "join/not_a_label" "core.other";
  check "brand_new" "core.other";
  let keys = Layers.keys in
  Alcotest.(check int) "keys are unique" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_percentile () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  let p ?min_tail q n = Stats.percentile ?min_tail q (xs n) in
  let fo = Alcotest.(option (float 0.)) in
  Alcotest.check fo "p95 of 200 keeps 10 above" (Some 190.) (p ~min_tail:10 0.95 200);
  Alcotest.check fo "p95 of 199 has 9 above" None (p ~min_tail:10 0.95 199);
  Alcotest.check fo "p50 of 20" (Some 10.) (p ~min_tail:10 0.5 20);
  Alcotest.check fo "p50 of 19" None (p ~min_tail:10 0.5 19);
  Alcotest.check fo "no rule: p95 of 6 is the max" (Some 6.) (p 0.95 6);
  Alcotest.check fo "empty" None (p 0.5 0);
  Alcotest.check fo "unsorted input" (Some 2.) (Stats.percentile 0.5 [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "median even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Stats.valid_name n))
    [ "pass_s"; "core.unlabeled.self_s"; "0x"; "a-b" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Stats.valid_name n))
    [ ""; ".x"; "_x"; "a b"; "a/b"; String.make 65 'a' ];
  List.iter (fun u -> Alcotest.(check bool) u true (Stats.valid_unit u)) [ "s"; "1/s"; "%"; "MiB" ];
  List.iter (fun u -> Alcotest.(check bool) u false (Stats.valid_unit u)) [ ""; "m s"; String.make 17 's' ];
  let all = Catalog.end_to_end @ Catalog.per_layer in
  List.iter
    (fun (n, u) ->
      Alcotest.(check bool) ("valid name " ^ n) true (Stats.valid_name n);
      Alcotest.(check bool) ("valid unit " ^ u) true (Stats.valid_unit u))
    all;
  Alcotest.(check int) "names are unique" (List.length all)
    (List.length (List.sort_uniq compare (List.map fst all)));
  Alcotest.(check bool) "at most 128 per-layer metrics" true (List.length Catalog.per_layer <= 128)

(* BENCHMARK.json declares the catalogue's metrics, in order, with units. *)
let test_benchmark_json () =
  let s = read_file "../BENCHMARK.json" in
  let section key =
    let start = Str.search_forward (Str.regexp_string ("\"" ^ key ^ "\"")) s 0 in
    let stop = Str.search_forward (Str.regexp_string "]") s start in
    String.sub s start (stop - start)
  in
  let entries sec =
    let re = Str.regexp "\"name\": \"\\([^\"]+\\)\",[ \n]*\"unit\": \"\\([^\"]+\\)\"" in
    let rec scan pos acc =
      match Str.search_forward re sec pos with
      | i -> scan (i + 1) ((Str.matched_group 1 sec, Str.matched_group 2 sec) :: acc)
      | exception Not_found -> List.rev acc
    in
    scan 0 []
  in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" Catalog.end_to_end (entries (section "end_to_end"));
  Alcotest.check pairs "per_layer" Catalog.per_layer (entries (section "per_layer"))

(* Attribution: each event's rounds and bits go to the innermost label
   active when it fires, refunds included; sums equal the meters. *)
let test_tracer () =
  let ctx = Ctx.create ~seed:1 Ctx.Sh_hm in
  let tr = Tracer.create () in
  Tracer.install tr ctx;
  Tracer.begin_span tr;
  Comm.round ctx.comm ~bits:10 ~messages:1;
  Ctx.with_label ctx "join" (fun () ->
      Comm.round ctx.comm ~bits:100 ~messages:3;
      Ctx.with_label ctx "applyperm" (fun () ->
          Comm.round ctx.comm ~bits:7 ~messages:3;
          Comm.traffic ctx.comm ~bits:5 ~messages:3;
          Comm.round ctx.preproc ~bits:1000 ~messages:1);
      Comm.refund_rounds ctx.comm 1);
  Ctx.with_label ctx "mystery" (fun () -> Comm.rounds_only ctx.comm 2);
  Tracer.end_span tr;
  Tracer.uninstall tr;
  Alcotest.(check bool) "hooks removed" true (Comm.channel ctx.comm = None && not (Comm.recording ctx.comm));
  Alcotest.(check (list string)) "sums match the meters" [] (Tracer.check tr);
  let a = Tracer.get tr in
  Alcotest.(check (list int)) "unlabeled" [ 1; 10; 0 ] [ (a "core.unlabeled").rounds; (a "core.unlabeled").bits; (a "core.unlabeled").pre_bits ];
  Alcotest.(check (list int)) "join (refund included)" [ 0; 100 ] [ (a "core.join").rounds; (a "core.join").bits ];
  Alcotest.(check (list int)) "applyperm" [ 1; 12; 1000 ] [ (a "shuffle.applyperm").rounds; (a "shuffle.applyperm").bits; (a "shuffle.applyperm").pre_bits ];
  Alcotest.(check int) "unknown label kept in core.other" 2 (a "core.other").rounds;
  let cov_s, cov_b = Tracer.coverage tr in
  Alcotest.(check bool) "time coverage in [0,1]" true (cov_s >= 0. && cov_s <= 1.);
  Alcotest.(check (float 1e-9)) "bit coverage" (112. /. 122.) cov_b

(* The reference kernel must not allocate (its time would then depend on
   the engine's heap), and a span's factor is nominal over the mean of the
   samples around it. *)
let test_hostspeed () =
  let w0 = Gc.minor_words () in
  Hostspeed.kernel ();
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "kernel allocates nothing" 0. (w1 -. w0);
  Hostspeed.last := Some 0.1;
  let x, c, k = Hostspeed.span (fun () -> 42) in
  Alcotest.(check int) "span returns f's result" 42 x;
  Alcotest.(check bool) "span CPU time is non-negative" true (c >= 0.);
  let after = List.hd !Hostspeed.samples in
  Alcotest.(check (float 1e-12)) "factor" (Hostspeed.nominal_s /. ((0.1 +. after) /. 2.)) k;
  Alcotest.(check bool) "the after sample is the next before sample" true (!Hostspeed.last = Some after)

let () =
  Alcotest.run "orqbench"
    [
      ( "layers",
        [
          Alcotest.test_case "labels match lib/" `Quick test_labels_match_lib;
          Alcotest.test_case "key of stack" `Quick test_key_of_stack;
        ] );
      ("stats", [ Alcotest.test_case "percentile rule" `Quick test_percentile ]);
      ( "names",
        [
          Alcotest.test_case "validation" `Quick test_names;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
        ] );
      ("tracer", [ Alcotest.test_case "attribution" `Quick test_tracer ]);
      ("hostspeed", [ Alcotest.test_case "reference kernel" `Quick test_hostspeed ]);
    ]
