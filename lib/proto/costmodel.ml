(* Closed-form per-primitive transcripts; see the interface. *)

module Comm = Orq_net.Comm

let ring_bits = 64 (* metered ring width, must match Ctx.create's ell *)

(* One fused lane of multiplication/AND traffic (bits, messages). *)
let mul_lane kind ~w ~n =
  match kind with
  | Ctx.Sh_dm -> (2 * 2 * w * n, 2)
  | Ctx.Sh_hm -> (3 * w * n, 3)
  | Ctx.Mal_hm -> (4 * 3 * w * n, 12)

(* One fused lane of opening traffic. *)
let open_lane kind ~w ~n =
  match kind with
  | Ctx.Sh_dm -> (2 * w * n, 2)
  | Ctx.Sh_hm -> (3 * w * n, 3)
  | Ctx.Mal_hm -> (4 * ((w * n) + Mpc.hash_bits), 8)

let round_ev (bits, messages) =
  {
    Comm.ev_op = Comm.Round;
    ev_label = "";
    ev_rounds = 1;
    ev_bits = bits;
    ev_messages = messages;
  }

let barrier_ev k =
  { Comm.ev_op = Comm.Barrier; ev_label = ""; ev_rounds = k; ev_bits = 0; ev_messages = 0 }

(** Opening a [w]-bit vector of [n] elements: one round. *)
let open_events kind ~w ~n = [| round_ev (open_lane kind ~w ~n) |]

(** Multiplication / bitwise AND / OR / MUX on [w]-bit vectors: one round
    of masked-difference exchange. *)
let mul_events kind ~w ~n = [| round_ev (mul_lane kind ~w ~n) |]

(** Single-bit boolean→arithmetic conversion of [n] bits: opens the
    daBit-masked bits in one width-1 round (the correlations themselves are
    preprocessing and do not appear in the online transcript). *)
let bit_b2a_events kind ~n = open_events kind ~w:1 ~n

(** Equality of [w]-bit vectors ([n] lanes deep): XOR locally, then the
    logarithmic OR-fold — one round per level at halving stride widths,
    ⌈log₂ w⌉ rounds total (zero for w = 1). *)
let eq_events kind ~w ~n =
  let evs = ref [] in
  let s = ref (Orq_util.Ring.next_pow2 w / 2) in
  while !s > 0 do
    evs := round_ev (mul_lane kind ~w:(max 1 !s) ~n) :: !evs;
    s := !s / 2
  done;
  Array.of_list (List.rev !evs)

(** Less-than on [w]-bit vectors: the (lt, eq) block-combination ladder of
    §B — an initial width-[w] AND, then one level per doubling block size,
    each AND packing both combination products over doubled-length
    operands. ⌈log₂ w⌉ + 1 rounds. *)
let lt_events kind ~w ~n =
  let evs = ref [ round_ev (mul_lane kind ~w ~n) ] in
  let d = ref 1 in
  while !d < w do
    evs := round_ev (mul_lane kind ~w:(max 1 (w / (2 * !d))) ~n:(2 * n)) :: !evs;
    d := 2 * !d
  done;
  Array.of_list (List.rev !evs)

(** Division of an arithmetic [n]-vector by a public constant [d]
    ({!Orq_circuits.Divide.div_pub}): the masked opening of x + r at the
    full metered ring width, one fused less-than ladder over both wrap
    hypotheses (2n lanes of ⌈log₂(d+1)⌉ bits), the single-bit AND that
    selects the hypothesis, and the daBit conversion of the selected bit.
    The dividend's width does not appear: ⌈log₂⌈log₂(d+1)⌉⌉ + 4 rounds. *)
let div_pub_events kind ~n ~d =
  Array.concat
    [
      open_events kind ~w:ring_bits ~n;
      lt_events kind ~w:(Orq_util.Ring.log2_ceil (d + 1)) ~n:(2 * n);
      mul_events kind ~w:1 ~n;
      bit_b2a_events kind ~n;
    ]

(** One sharded-permutation application over [n] elements of [w] bits
    (Table 1): a payload round followed by the remaining passes as
    payload-free barrier rounds. *)
let shuffle_events kind ~w ~n =
  let bits, rounds, messages =
    match kind with
    | Ctx.Sh_dm -> (2 * w * n, 2, 2)
    | Ctx.Sh_hm -> (6 * w * n, 3, 6)
    | Ctx.Mal_hm -> (24 * w * n, 4, 12)
  in
  [| round_ev (bits, messages); barrier_ev (rounds - 1) |]

let tally_of (evs : Comm.event array) : Comm.tally =
  Array.fold_left
    (fun (t : Comm.tally) (e : Comm.event) ->
      {
        Comm.t_rounds = t.Comm.t_rounds + e.Comm.ev_rounds;
        t_bits = t.Comm.t_bits + e.Comm.ev_bits;
        t_messages = t.Comm.t_messages + e.Comm.ev_messages;
      })
    Comm.zero_tally evs
