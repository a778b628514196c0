(** Oblivious integer division.

    A secret divisor ([udiv]) runs the non-restoring circuit the paper uses
    for fully private averages, "inspired by the hardware literature"
    (§5.1, citing Lu): [w] iterations, each shifting the partial remainder
    and adding +D or -D depending on the (secret) sign of the running
    remainder, with a final remainder fix-up. The invariant is

      X_consumed = Q·D + R + D·[R < 0],   R in [-D, D)

    so the quotient bits q_i = [R_new >= 0] need no digit correction; only a
    negative final remainder gets +D. Inputs are unsigned [w]-bit boolean
    sharings; the partial remainder is carried at width [w + 2] so signed
    intermediates (bounded by 2D) never overflow. Division by zero yields
    unspecified output, as in the paper's engine.

    A public divisor ([div_pub]) needs no circuit over the dividend's bits:
    the masked-opening protocol of Catrina–de Hoogh (SCN 2010) and
    Catrina–Saxena (FC 2010) costs one opening plus one comparison over
    ⌈log₂(d+1)⌉-bit lanes, whatever the dividend's width. *)

open Orq_proto
open Orq_util

let check_width w =
  if w < 1 || w > Ring.word_bits - 2 then
    invalid_arg "Divide: width must be in [1, word_bits - 2]"

(* Sign flag (bit wr - 1) of a wr-bit two's-complement sharing, as an LSB
   single-bit share. *)
let msb x ~wr = Mpc.and_mask (Mpc.rshift x (wr - 1)) 1

(** [udiv ctx ~w x d] returns boolean sharings of the quotient and remainder
    of unsigned [w]-bit division by a secret divisor. *)
let udiv (ctx : Ctx.t) ~w x d : Share.shared * Share.shared =
  check_width w;
  let wr = w + 2 in
  let n = Share.length x in
  let d = Mpc.and_mask d (Ring.mask w) in
  let neg_d = Adder.neg ctx ~w:wr d in
  let zero = Share.public ctx Share.Bool n 0 in
  let r = ref zero in
  let qbits = ref zero in
  for i = w - 1 downto 0 do
    let xi = Mpc.and_mask (Mpc.rshift x i) 1 in
    (* 2R + x_i : the shifted-in low bit is zero so xor inserts x_i *)
    let r2 = Mpc.and_mask (Mpc.xor (Mpc.lshift !r 1) xi) (Ring.mask wr) in
    (* subtract D from a non-negative remainder, add it to a negative one *)
    let addend = Mux.mux_b ~width:wr ctx (msb !r ~wr) neg_d d in
    r := Adder.add ctx ~w:wr r2 addend;
    (* quotient bit is 1 iff the new remainder is non-negative *)
    let q = Mpc.xor_pub (msb !r ~wr) 1 in
    qbits := Mpc.xor !qbits (Mpc.lshift q i)
  done;
  let neg = Mpc.extend_bit (msb !r ~wr) in
  let r_fixed = Adder.add ctx ~w:wr !r (Mpc.band ~width:wr ctx neg d) in
  (Mpc.and_mask !qbits (Ring.mask w), Mpc.and_mask r_fixed (Ring.mask w))

(** [div_pub ctx ~w x d] is an arithmetic sharing of ⌊x/d⌋ for an
    arithmetic sharing [x] of values in [0, 2^w) and a public divisor
    [d >= 1].

    With a dealer mask r (uniform in Z_2^63, see {!Dealer.divmask}) the
    parties open c = x + r mod 2^63, which is uniform whatever x is. Write
    c = d·qc + rc, r = d·qr + rr and 2^63 = d·qM + rM. Since x < 2^61, the
    sum x + r wraps (ν = 1) exactly when msb(r) = 1 and msb(c) = 0, and

      ⌊x/d⌋ = qc − qr + ν·qM + δ,   δ = ⌊(u − rr)/d⌋ ∈ {−1, 0, 1}

    with u = rc + ν·rM ∈ [0, 2d − 1). For a known u one comparison decides
    δ: δ = [rr ≤ u mod d] − [u < d]. Both hypotheses ν = 0 and ν = 1 run
    for every row in one fused less-than ladder; one single-bit AND with
    msb(r) (zeroed locally on rows whose public msb(c) rules a wrap out)
    selects the right one, and one daBit conversion makes it arithmetic.
    The transcript depends only on (protocol, n, d): no step grows with
    [w]. *)
let div_pub (ctx : Ctx.t) ~w (x : Share.shared) d : Share.shared =
  check_width w;
  if d < 1 then invalid_arg "Divide.div_pub: divisor must be positive";
  let n = Share.length x in
  let m = Dealer.divmask ctx ~d n in
  let c = Mpc.open_ ctx (Mpc.add x m.Dealer.dm_r) in
  let qm, rm = Ring.modulus_divmod d in
  (* Per row, with u_0 = rc and u_1 = rc + rM: the public terms of
     q = (qc − 1) − qr + ν·(qM + 1 − [u_1 < d]) + b, and both hypotheses'
     ladder thresholds (u mod d) + 1. u_0 < d always, so δ_0 = b_0 − 1.
     ν = msb(r) on rows that may wrap and 0 elsewhere, so [wrap] carries
     the public factor of ν's coefficient. *)
  let base = Array.make n 0 and wrap = Array.make n 0 in
  let may_wrap = Array.make n 0 and thresholds = Array.make (2 * n) 0 in
  for i = 0 to n - 1 do
    let qc, rc = Ring.udivmod c.(i) d in
    let u1 = rc + rm in
    base.(i) <- qc - 1;
    if c.(i) >= 0 then begin
      may_wrap.(i) <- 1;
      wrap.(i) <- qm + 1 - Bool.to_int (u1 < d)
    end;
    thresholds.(i) <- rc + 1;
    thresholds.(n + i) <- (u1 mod d) + 1
  done;
  let rem = m.Dealer.dm_rem in
  let b0, b1 =
    Share.split2
      (Compare.lt ctx
         ~w:(Ring.log2_ceil (d + 1))
         (Share.append rem rem)
         (Share.public_vec ctx Share.Bool thresholds))
      n
  in
  let nu_b = Mpc.and_mask_vec m.Dealer.dm_msb_b may_wrap in
  let b = Mpc.xor b0 (Mpc.band1 ctx nu_b (Mpc.xor b0 b1)) in
  Mpc.add_pub_vec
    (Mpc.add
       (Mpc.sub (Mpc.mul_pub_vec m.Dealer.dm_msb_a wrap) m.Dealer.dm_quot)
       (Convert.bit_b2a ctx b))
    base
