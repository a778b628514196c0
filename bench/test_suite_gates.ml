(* The query-suite gates on hand-built records: a consistent set passes
   every gate, and one seeded bad record trips each gate in turn — no
   query runs. *)

open Suite_gates
module Comm = Orq_net.Comm

let tally rounds bits messages =
  { Comm.t_rounds = rounds; t_bits = bits; t_messages = messages }

let rec_ ?(ok = true) ?(joins = []) query proto config t =
  { query; proto; config; ok; tally = t; joins; wall_s = 0.01 }

(* Two protocols; Q1 is a plain query, Q3/Q5/Q9 are join targets. *)
let good =
  List.concat_map
    (fun proto ->
      [
        rec_ "Q1" proto "default" (tally 900 1000 50);
        rec_ "Q1" proto "no-fusion" (tally 1200 1000 50);
        rec_ "Q1" proto "word-flags" (tally 900 1000 50);
      ]
      @ List.concat_map
          (fun q ->
            [
              rec_ q proto "default" (tally 400 5000 60) ~joins:[ "linear" ];
              rec_ q proto "no-fusion" (tally 700 5000 60);
              rec_ q proto "word-flags" (tally 400 5000 60);
              rec_ q proto "join=sort" (tally 600 9000 80) ~joins:[ "sort" ];
              rec_ q proto "join=linear" (tally 400 5000 60);
              rec_ q proto "join=quad" (tally 500 90000 70);
            ])
          [ "Q3"; "Q5"; "Q9" ])
    [ "SH-HM"; "MAL-HM" ]

(* Replace the record of [cell] in [good] by [f] of it. *)
let seed_bad query proto config f =
  List.map
    (fun r ->
      if r.query = query && r.proto = proto && r.config = config then f r
      else r)
    good

let failing rs = List.filter (fun (_, bad) -> bad <> []) (check rs)

let test_good_passes () =
  Alcotest.(check (list (pair string (list string))))
    "no gate fails" [] (failing good)

(* [rs] fails exactly the gate [name], on [cells]. *)
let trips name cells rs () =
  Alcotest.(check (list (pair string (list string))))
    name [ (name, cells) ] (failing rs)

let gate_named prefix =
  fst (List.find (fun (n, _) -> String.starts_with ~prefix n) gates)

let with_tally t r = { r with tally = t }

let cases =
  [
    ( "invalid cell",
      gate_named "every cell validates",
      [ "Q1/SH-HM/word-flags" ],
      seed_bad "Q1" "SH-HM" "word-flags" (fun r -> { r with ok = false }) );
    ( "cell run twice",
      gate_named "every cell runs once",
      [ "Q1/SH-HM/default" ],
      good @ [ rec_ "Q1" "SH-HM" "default" (tally 900 1000 50) ] );
    ( "fusion moves bits",
      gate_named "no-fusion",
      [ "Q1/MAL-HM/no-fusion" ],
      seed_bad "Q1" "MAL-HM" "no-fusion" (with_tally (tally 1200 1001 50)) );
    ( "packing moves rounds",
      gate_named "word-flags",
      [ "Q3/SH-HM/word-flags" ],
      seed_bad "Q3" "SH-HM" "word-flags" (with_tally (tally 401 5000 60)) );
    ( "linear loses to sort",
      gate_named "linear beats sort",
      [ "SH-HM: linear beats sort on 2/3 (need 3)" ],
      seed_bad "Q5" "SH-HM" "join=linear" (with_tally (tally 600 9000 60)) );
    ( "auto not cheapest",
      gate_named "default (auto)",
      [ "Q9/MAL-HM/default" ],
      seed_bad "Q9" "MAL-HM" "join=quad" (with_tally (tally 100 100 10)) );
  ]

let () =
  Alcotest.run "suite_gates"
    [
      ( "gates",
        Alcotest.test_case "consistent records pass every gate" `Quick
          test_good_passes
        :: List.map
             (fun (what, name, cells, rs) ->
               Alcotest.test_case ("trips on " ^ what) `Quick
                 (trips name cells rs))
             cases );
    ]
