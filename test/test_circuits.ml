(* Tests for the oblivious circuit layer: comparisons, adders, mux,
   conversions and both division protocols — each checked against
   plaintext semantics under all three protocols. *)

open Orq_util
open Orq_proto
open Orq_circuits

let kinds = Ctx.all_kinds
let vec = Alcotest.(array int)

let for_all_kinds f = List.iter (fun k -> f (Ctx.create ~seed:11 k)) kinds

let small_gen ~w n =
  QCheck.Gen.(array_size (return n) (map (fun x -> x land Ring.mask w) int))

let arb_small ~w n = QCheck.make (small_gen ~w n)

(* ------------- comparisons ------------- *)

let test_eq_qcheck =
  QCheck.Test.make ~name:"eq circuit" ~count:25
    (QCheck.pair (arb_small ~w:16 13) (arb_small ~w:16 13))
    (fun (x, y) ->
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:3 k in
          (* force some equal pairs *)
          let y = Array.mapi (fun i v -> if i mod 3 = 0 then x.(i) else v) y in
          let r =
            Compare.eq ctx ~w:16 (Mpc.share_b ctx x) (Mpc.share_b ctx y)
            |> Share.reconstruct
          in
          Array.for_all2 (fun got (a, b) -> got = if a = b then 1 else 0)
            r
            (Array.map2 (fun a b -> (a, b)) x y))
        kinds)

let test_lt_qcheck =
  QCheck.Test.make ~name:"lt circuit (unsigned)" ~count:25
    (QCheck.pair (arb_small ~w:20 13) (arb_small ~w:20 13))
    (fun (x, y) ->
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:5 k in
          let r =
            Compare.lt ctx ~w:20 (Mpc.share_b ctx x) (Mpc.share_b ctx y)
            |> Share.reconstruct
          in
          Array.for_all2 (fun got (a, b) -> got = if a < b then 1 else 0)
            r
            (Array.map2 (fun a b -> (a, b)) x y))
        kinds)

let test_lt_odd_width () =
  (* non-power-of-two width exercises the padding blocks *)
  for_all_kinds (fun ctx ->
      let x = [| 0; 1; 17; 16; 30; 31; 5 |] in
      let y = [| 0; 2; 17; 17; 29; 0; 31 |] in
      let r =
        Compare.lt ctx ~w:5 (Mpc.share_b ctx x) (Mpc.share_b ctx y)
        |> Share.reconstruct
      in
      Alcotest.(check vec) "lt w=5" [| 0; 1; 0; 1; 0; 0; 1 |] r)

let test_lt_signed () =
  for_all_kinds (fun ctx ->
      let m = Ring.mask 8 in
      let enc v = v land m in
      let x = Array.map enc [| -3; -1; 5; -128; 127; 0 |] in
      let y = Array.map enc [| 2; -2; 5; 127; -128; 0 |] in
      let r =
        Compare.lt ~signed:true ctx ~w:8 (Mpc.share_b ctx x)
          (Mpc.share_b ctx y)
        |> Share.reconstruct
      in
      Alcotest.(check vec) "signed lt" [| 1; 0; 0; 1; 0; 0 |] r)

let test_le_ge_gt () =
  for_all_kinds (fun ctx ->
      let x = [| 1; 5; 9 |] and y = [| 5; 5; 5 |] in
      let sx = Mpc.share_b ctx x and sy = Mpc.share_b ctx y in
      Alcotest.(check vec) "le" [| 1; 1; 0 |]
        (Share.reconstruct (Compare.le ctx ~w:8 sx sy));
      Alcotest.(check vec) "ge" [| 0; 1; 1 |]
        (Share.reconstruct (Compare.ge ctx ~w:8 sx sy));
      Alcotest.(check vec) "gt" [| 0; 0; 1 |]
        (Share.reconstruct (Compare.gt ctx ~w:8 sx sy)))

let test_lt_lex () =
  for_all_kinds (fun ctx ->
      let k1 = [| 1; 1; 2; 2 |] and k2 = [| 7; 9; 3; 3 |] in
      let l1 = [| 1; 1; 2; 2 |] and l2 = [| 9; 7; 3; 4 |] in
      let r =
        Compare.lt_lex ctx
          [
            (Mpc.share_b ctx k1, Mpc.share_b ctx l1, 8);
            (Mpc.share_b ctx k2, Mpc.share_b ctx l2, 8);
          ]
        |> Share.reconstruct
      in
      Alcotest.(check vec) "lex" [| 1; 0; 0; 1 |] r)

let test_eq_composite () =
  for_all_kinds (fun ctx ->
      let a1 = [| 1; 1; 2 |] and a2 = [| 5; 5; 5 |] in
      let b1 = [| 1; 2; 2 |] and b2 = [| 5; 5; 6 |] in
      let r =
        Compare.eq_composite ctx
          [
            (Mpc.share_b ctx a1, Mpc.share_b ctx b1, 8);
            (Mpc.share_b ctx a2, Mpc.share_b ctx b2, 8);
          ]
        |> Share.reconstruct
      in
      Alcotest.(check vec) "composite eq" [| 1; 0; 0 |] r)

(* ------------- mux ------------- *)

let test_mux_b () =
  for_all_kinds (fun ctx ->
      let b = [| 0; 1; 0; 1 |] in
      let x = [| 10; 20; 30; 40 |] and y = [| 1; 2; 3; 4 |] in
      let r =
        Mux.mux_b ctx (Mpc.share_b ctx b) (Mpc.share_b ctx x)
          (Mpc.share_b ctx y)
        |> Share.reconstruct
      in
      Alcotest.(check vec) "mux_b" [| 10; 2; 30; 4 |] r)

let test_mux_b_many () =
  for_all_kinds (fun ctx ->
      let b = Mpc.share_b ctx [| 1; 0 |] in
      let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
      let out =
        Mux.mux_b_many ctx b
          [
            (Mpc.share_b ctx [| 1; 2 |], Mpc.share_b ctx [| 8; 9 |]);
            (Mpc.share_b ctx [| 3; 4 |], Mpc.share_b ctx [| 6; 7 |]);
          ]
      in
      let tl = Orq_net.Comm.since ctx.Ctx.comm before in
      Alcotest.(check int) "one round for many columns" 1
        tl.Orq_net.Comm.t_rounds;
      match out with
      | [ c1; c2 ] ->
          Alcotest.(check vec) "col1" [| 8; 2 |] (Share.reconstruct c1);
          Alcotest.(check vec) "col2" [| 6; 4 |] (Share.reconstruct c2)
      | _ -> Alcotest.fail "arity")

let test_mux_a () =
  for_all_kinds (fun ctx ->
      let b = Mpc.share_a ctx [| 1; 0; 1 |] in
      let x = Mpc.share_a ctx [| 5; 5; 5 |] in
      let y = Mpc.share_a ctx [| 9; 9; 9 |] in
      Alcotest.(check vec) "mux_a" [| 9; 5; 9 |]
        (Share.reconstruct (Mux.mux_a ctx b x y)))

(* ------------- adder ------------- *)

let test_add_qcheck =
  QCheck.Test.make ~name:"KS adder" ~count:25
    (QCheck.pair (arb_small ~w:32 11) (arb_small ~w:32 11))
    (fun (x, y) ->
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:6 k in
          let r =
            Adder.add ctx ~w:32 (Mpc.share_b ctx x) (Mpc.share_b ctx y)
            |> Share.reconstruct
          in
          Array.for_all2 (fun got (a, b) -> got = (a + b) land Ring.mask 32)
            r
            (Array.map2 (fun a b -> (a, b)) x y))
        kinds)

let test_sub () =
  for_all_kinds (fun ctx ->
      let x = [| 10; 0; 100; 7 |] and y = [| 3; 1; 100; 9 |] in
      let r =
        Adder.sub ctx ~w:16 (Mpc.share_b ctx x) (Mpc.share_b ctx y)
        |> Share.reconstruct
      in
      let expect = Array.map2 (fun a b -> (a - b) land Ring.mask 16) x y in
      Alcotest.(check vec) "sub" expect r)

let test_add_pub () =
  for_all_kinds (fun ctx ->
      let x = [| 100; 200; 300 |] and c = [| 1; 2; 3 |] in
      let r =
        Adder.add_pub ctx ~w:16 (Mpc.share_b ctx x) c |> Share.reconstruct
      in
      Alcotest.(check vec) "add_pub" [| 101; 202; 303 |] r;
      let r2 =
        Adder.sub_pub_minuend ctx ~w:16 [| 10; 10; 10 |] (Mpc.share_b ctx c)
        |> Share.reconstruct
      in
      Alcotest.(check vec) "sub_pub_minuend" [| 9; 8; 7 |] r2;
      let r3 =
        Adder.sub_pub ctx ~w:16 (Mpc.share_b ctx x) c |> Share.reconstruct
      in
      Alcotest.(check vec) "sub_pub" [| 99; 198; 297 |] r3)

let test_neg () =
  for_all_kinds (fun ctx ->
      let x = [| 1; 0; 255 |] in
      let r = Adder.neg ctx ~w:8 (Mpc.share_b ctx x) |> Share.reconstruct in
      Alcotest.(check vec) "neg" [| 255; 0; 1 |] r)

(* ------------- conversions ------------- *)

let test_bit_b2a () =
  for_all_kinds (fun ctx ->
      let b = [| 0; 1; 1; 0; 1 |] in
      let r = Convert.bit_b2a ctx (Mpc.share_b ctx b) |> Share.reconstruct in
      Alcotest.(check vec) "bit b2a" b r)

let test_b2a_qcheck =
  QCheck.Test.make ~name:"b2a full width" ~count:20 (arb_small ~w:39 9)
    (fun x ->
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:8 k in
          let r =
            Convert.b2a ~w:40 ctx (Mpc.share_b ctx x) |> Share.reconstruct
          in
          Vec.equal r x)
        kinds)

let test_b2a_signed () =
  (* two's-complement interpretation: the top bit weighs negatively *)
  for_all_kinds (fun ctx ->
      let m = Ring.mask 8 in
      let x = [| -3 land m; 127; 128; 255 |] in
      let r =
        Convert.b2a ~w:8 ~signed:true ctx (Mpc.share_b ctx x)
        |> Share.reconstruct
      in
      Alcotest.(check vec) "signed b2a" [| -3; 127; -128; -1 |]
        (Array.map Ring.to_signed r);
      let u = Convert.b2a ~w:8 ctx (Mpc.share_b ctx x) |> Share.reconstruct in
      Alcotest.(check vec) "unsigned b2a (default)" [| 253; 127; 128; 255 |] u)

let test_a2b_qcheck =
  QCheck.Test.make ~name:"a2b full word" ~count:20 (arb_small ~w:62 9)
    (fun x ->
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:10 k in
          let r =
            Convert.a2b ~w:Ring.word_bits ctx (Mpc.share_a ctx x)
            |> Share.reconstruct
          in
          Vec.equal r x)
        kinds)

let test_a2b_narrow () =
  for_all_kinds (fun ctx ->
      let x = [| 3; 250; 17 |] in
      let r =
        Convert.a2b ~w:8 ctx (Mpc.share_a ctx x) |> Share.reconstruct
      in
      Alcotest.(check vec) "a2b w=8" x r)

let test_b2a_rounds () =
  (* the batched conversion must stay a single online round *)
  let ctx = Ctx.create Ctx.Sh_hm in
  let x = Mpc.share_b ctx [| 1; 2; 3; 4 |] in
  let before = Orq_net.Comm.snapshot ctx.Ctx.comm in
  ignore (Convert.b2a ~w:16 ctx x);
  let tl = Orq_net.Comm.since ctx.Ctx.comm before in
  Alcotest.(check int) "b2a single round" 1 tl.Orq_net.Comm.t_rounds

(* ------------- division ------------- *)

let test_div_known () =
  for_all_kinds (fun ctx ->
      let x = [| 7; 7; 5; 4; 2; 0; 100; 99 |] in
      let d = [| 3; 2; 3; 3; 3; 5; 10; 10 |] in
      let q, r =
        Divide.udiv ctx ~w:8 (Mpc.share_b ctx x) (Mpc.share_b ctx d)
      in
      Alcotest.(check vec) "quotients" [| 2; 3; 1; 1; 0; 0; 10; 9 |]
        (Share.reconstruct q);
      Alcotest.(check vec) "remainders" [| 1; 1; 2; 1; 2; 0; 0; 9 |]
        (Share.reconstruct r))

let test_div_qcheck =
  QCheck.Test.make ~name:"non-restoring division" ~count:20
    (QCheck.pair (arb_small ~w:16 7)
       (QCheck.make
          QCheck.Gen.(
            array_size (return 7) (map (fun x -> 1 + (x land 0xFFF)) int))))
    (fun (x, d) ->
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:12 k in
          let q, r =
            Divide.udiv ctx ~w:16 (Mpc.share_b ctx x) (Mpc.share_b ctx d)
          in
          let q = Share.reconstruct q and r = Share.reconstruct r in
          Array.for_all2
            (fun (qi, ri) (xi, di) -> qi = xi / di && ri = xi mod di)
            (Array.map2 (fun a b -> (a, b)) q r)
            (Array.map2 (fun a b -> (a, b)) x d))
        kinds)

(* Public-divisor division: the masked-opening protocol over arithmetic
   sharings. The remainder x - d * q is recomputed locally from the shares. *)
let div_pub_check ctx ~w ~d x =
  let xs = Mpc.share_a ctx x in
  let q = Divide.div_pub ctx ~w xs d in
  let r = Mpc.sub xs (Mpc.mul_pub q d) in
  (Share.reconstruct q, Share.reconstruct r)

let test_div_pub () =
  for_all_kinds (fun ctx ->
      let x = [| 1000; 12345; 77; 64; 0; 65535 |] in
      List.iter
        (fun d ->
          let q, r = div_pub_check ctx ~w:16 ~d x in
          Alcotest.(check vec) "pub quotients" (Array.map (fun v -> v / d) x) q;
          Alcotest.(check vec) "pub remainders"
            (Array.map (fun v -> v mod d) x) r)
        [ 7; 100; 11; 64 ];
      Alcotest.check_raises "zero divisor"
        (Invalid_argument "Divide.div_pub: divisor must be positive")
        (fun () -> ignore (div_pub_check ctx ~w:16 ~d:0 x)))

let div_widths = [ 8; 16; 36; 46; 61 ]
let div_divisors = [ 1; 2; 7; 64; 100; 365; (1 lsl 20) + 7 ]

(* every x in [0, 2^w) must divide exactly: the edges 0, d - 1, d and
   2^w - 1 (where they fit the width) plus the random draws *)
let test_div_pub_qcheck =
  QCheck.Test.make ~name:"public-divisor division" ~count:4
    (QCheck.make QCheck.Gen.(array_size (return 9) (map (fun x -> x land max_int) int)))
    (fun raw ->
      List.for_all
        (fun k ->
          let ctx = Ctx.create ~seed:21 k in
          List.for_all
            (fun w ->
              List.for_all
                (fun d ->
                  let top = Ring.mask w in
                  let edges =
                    List.filter (fun v -> v <= top) [ 0; d - 1; d; top ]
                  in
                  let x =
                    Array.append (Array.of_list edges)
                      (Array.map (fun v -> v land top) raw)
                  in
                  let q, r = div_pub_check ctx ~w ~d x in
                  q = Array.map (fun v -> v / d) x
                  && r = Array.map (fun v -> v mod d) x)
                div_divisors)
            div_widths)
        kinds)

(* online and preprocessing tallies of one division *)
let div_pub_tallies kind ~w ~d x =
  let ctx = Ctx.create ~seed:23 kind in
  let xs = Mpc.share_a ctx x in
  let on = Orq_net.Comm.snapshot ctx.Ctx.comm in
  let pre = Orq_net.Comm.snapshot ctx.Ctx.preproc in
  ignore (Divide.div_pub ctx ~w xs d);
  ( Orq_net.Comm.since ctx.Ctx.comm on,
    Orq_net.Comm.since ctx.Ctx.preproc pre )

let test_div_pub_oblivious () =
  List.iter
    (fun kind ->
      List.iter
        (fun d ->
          let lo = Array.init 20 (fun i -> i) in
          let hi = Array.init 20 (fun i -> Ring.mask 16 - (i * 977)) in
          let a = div_pub_tallies kind ~w:16 ~d lo in
          Alcotest.(check bool)
            (Printf.sprintf "tallies independent of x (d=%d)" d)
            true
            (a = div_pub_tallies kind ~w:16 ~d hi);
          let on61, _ = div_pub_tallies kind ~w:61 ~d lo in
          Alcotest.(check int)
            (Printf.sprintf "rounds at w=16 = rounds at w=61 (d=%d)" d)
            (fst a).Orq_net.Comm.t_rounds on61.Orq_net.Comm.t_rounds)
        div_divisors)
    kinds

let suite =
  [
    QCheck_alcotest.to_alcotest test_eq_qcheck;
    QCheck_alcotest.to_alcotest test_lt_qcheck;
    Alcotest.test_case "lt at odd width" `Quick test_lt_odd_width;
    Alcotest.test_case "lt signed" `Quick test_lt_signed;
    Alcotest.test_case "le/ge/gt" `Quick test_le_ge_gt;
    Alcotest.test_case "lexicographic lt" `Quick test_lt_lex;
    Alcotest.test_case "composite eq" `Quick test_eq_composite;
    Alcotest.test_case "mux_b" `Quick test_mux_b;
    Alcotest.test_case "mux_b_many (1 round)" `Quick test_mux_b_many;
    Alcotest.test_case "mux_a" `Quick test_mux_a;
    QCheck_alcotest.to_alcotest test_add_qcheck;
    Alcotest.test_case "sub" `Quick test_sub;
    Alcotest.test_case "add/sub with public operand" `Quick test_add_pub;
    Alcotest.test_case "neg" `Quick test_neg;
    Alcotest.test_case "bit b2a" `Quick test_bit_b2a;
    QCheck_alcotest.to_alcotest test_b2a_qcheck;
    Alcotest.test_case "b2a signed/unsigned" `Quick test_b2a_signed;
    QCheck_alcotest.to_alcotest test_a2b_qcheck;
    Alcotest.test_case "a2b narrow width" `Quick test_a2b_narrow;
    Alcotest.test_case "b2a is one round" `Quick test_b2a_rounds;
    Alcotest.test_case "division known cases" `Quick test_div_known;
    QCheck_alcotest.to_alcotest test_div_qcheck;
    Alcotest.test_case "division by public divisor" `Quick test_div_pub;
    QCheck_alcotest.to_alcotest test_div_pub_qcheck;
    Alcotest.test_case "public division transcript is shape-only" `Quick
      test_div_pub_oblivious;
  ]

let () = Alcotest.run "orq_circuits" [ ("circuits", suite) ]
