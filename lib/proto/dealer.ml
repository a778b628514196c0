(** Preprocessing correlations (trusted-dealer simulation).

    The real ORQ generates its input-independent correlated randomness with
    libOTe (random OTs -> OLE correlations and Beaver triples) and the
    permutation-correlation technique of Peceny et al. This repository
    substitutes a trusted dealer that emits the same correlations directly
    (see DESIGN.md): the *online* protocols consuming them are unchanged, and
    the paper itself reports online time for the dishonest-majority protocol.
    Dealer traffic is metered on [ctx.preproc], never on the online counter. *)

open Orq_util

(* Each correlation delivered to a party is metered as if the dealer sent it:
   [vectors] share vectors of [n] elements of [width] bits. *)
let meter_preproc (ctx : Ctx.t) ~vectors ~n ~width =
  Orq_net.Comm.round ctx.preproc ~bits:(vectors * n * width) ~messages:ctx.parties

type triple = { ta : Share.shared; tb : Share.shared; tc : Share.shared }

(** A Beaver multiplication triple [c = a * b] (arithmetic) or
    [c = a AND b] (boolean), secret-shared. Used by the 2PC protocol. *)
let beaver (ctx : Ctx.t) enc n : triple =
  let a = Prg.words ctx.prg n and b = Prg.words ctx.prg n in
  let c =
    match (enc : Share.enc) with
    | Arith -> Vec.mul a b
    | Bool -> Vec.band a b
  in
  meter_preproc ctx ~vectors:(3 * ctx.nvec) ~n ~width:ctx.ell;
  { ta = Share.share ctx enc a; tb = Share.share ctx enc b; tc = Share.share ctx enc c }

type dabits = { da_bool : Share.shared; da_arith : Share.shared }

(** daBits: random bits [r] shared simultaneously as boolean single-bit
    values (in the word's LSB) and as arithmetic 0/1 values. These drive the
    protocol-agnostic bit-conversion in {!Orq_circuits.Convert}. *)
let dabits (ctx : Ctx.t) n : dabits =
  let r = Array.init n (fun _ -> if Prg.bool ctx.prg then 1 else 0) in
  meter_preproc ctx ~vectors:(2 * ctx.nvec) ~n ~width:(ctx.ell + 1);
  { da_bool = Share.share ctx Bool r; da_arith = Share.share ctx Arith r }

type edabits = { ed_arith : Share.shared; ed_bool : Share.shared }

(** Extended daBits: random ring elements [r] shared both arithmetically and
    booleanly; the standard correlation behind A2B conversion. *)
let edabits (ctx : Ctx.t) n : edabits =
  let r = Prg.words ctx.prg n in
  meter_preproc ctx ~vectors:(2 * ctx.nvec) ~n ~width:(2 * ctx.ell);
  { ed_arith = Share.share ctx Arith r; ed_bool = Share.share ctx Bool r }

type divmask = {
  dm_r : Share.shared;  (** r, arithmetic *)
  dm_quot : Share.shared;  (** ⌊r/d⌋, arithmetic *)
  dm_rem : Share.shared;  (** r mod d, boolean *)
  dm_msb_b : Share.shared;  (** msb(r), boolean (LSB) *)
  dm_msb_a : Share.shared;  (** msb(r), arithmetic 0/1 *)
}

(** Masks for division by the public constant [d] (Catrina–de Hoogh):
    uniform ring elements [r] shared arithmetically, together with
    ⌊r/d⌋ (arithmetic), r mod d (boolean) and the top bit msb(r) (both
    ways), all read as unsigned in [0, 2^63). *)
let divmask (ctx : Ctx.t) ~d n : divmask =
  let r = Prg.words ctx.prg n in
  let quot = Array.make n 0 and rem = Array.make n 0 in
  Array.iteri
    (fun i ri ->
      let q, m = Ring.udivmod ri d in
      quot.(i) <- q;
      rem.(i) <- m)
    r;
  let msb = Array.map (fun ri -> Ring.bit ri (Ring.word_bits - 1)) r in
  meter_preproc ctx ~vectors:ctx.nvec ~n
    ~width:((3 * ctx.ell) + Ring.log2_ceil d + 1);
  {
    dm_r = Share.share ctx Arith r;
    dm_quot = Share.share ctx Arith quot;
    dm_rem = Share.share ctx Bool rem;
    dm_msb_b = Share.share ctx Bool msb;
    dm_msb_a = Share.share ctx Arith msb;
  }

(* ------------------------------------------------------------------ *)
(* Packed flag-lane correlations. Same correlations as above, for the
   bit-packed single-bit representation: the dealer's randomness is drawn
   per *word* (63 flags per PRG call) instead of per element, and the
   boolean side is emitted directly in packed lanes. Metering is kept
   byte-identical to the unpacked variants — the modeled dealer ships the
   same logical correlation either way; only the simulation's local
   compute and PRG draw shrink.                                        *)
(* ------------------------------------------------------------------ *)

type flag_triple = { fta : Share.flags; ftb : Share.flags; ftc : Share.flags }

(** Packed boolean Beaver triple [c = a AND b] over n single-bit lanes:
    per-word draws and per-word sharing; metered exactly like {!beaver}. *)
let beaver_flags (ctx : Ctx.t) n : flag_triple =
  let a = Bits.random ctx.prg n and b = Bits.random ctx.prg n in
  let c = Bits.band a b in
  meter_preproc ctx ~vectors:(3 * ctx.nvec) ~n ~width:ctx.ell;
  {
    fta = Share.share_flags ctx a;
    ftb = Share.share_flags ctx b;
    ftc = Share.share_flags ctx c;
  }

type flag_dabits = { fda_bool : Share.flags; fda_arith : Share.shared }

(** daBits with the boolean side packed: the random bits and their boolean
    sharing are drawn/shared per word; the arithmetic side stays
    per-element (arithmetic sharings have no packed form). Metered exactly
    like {!dabits}. *)
let dabits_flags (ctx : Ctx.t) n : flag_dabits =
  let r = Bits.random ctx.prg n in
  meter_preproc ctx ~vectors:(2 * ctx.nvec) ~n ~width:(ctx.ell + 1);
  {
    fda_bool = Share.share_flags ctx r;
    fda_arith = Share.share ctx Arith (Bits.unpack r);
  }

(** A secret-shared random vector unknown to every party (e.g. masks for
    padding). *)
let random_shared (ctx : Ctx.t) enc n : Share.shared =
  let r = Prg.words ctx.prg n in
  meter_preproc ctx ~vectors:ctx.nvec ~n ~width:ctx.ell;
  Share.share ctx enc r
