(** Preprocessing correlations (trusted-dealer simulation).

    The real ORQ generates input-independent correlated randomness with
    libOTe; this repository substitutes a trusted dealer emitting the same
    correlations directly (DESIGN.md): the online protocols consuming them
    are unchanged. Dealer traffic is metered on [ctx.preproc], never on
    the online counter. *)

type triple = { ta : Share.shared; tb : Share.shared; tc : Share.shared }

val beaver : Ctx.t -> Share.enc -> int -> triple
(** A Beaver triple [c = a * b] (arithmetic) or [c = a AND b] (boolean),
    secret-shared; used by the 2PC protocol. *)

type dabits = { da_bool : Share.shared; da_arith : Share.shared }

val dabits : Ctx.t -> int -> dabits
(** Random bits shared simultaneously as boolean (LSB) and arithmetic 0/1
    values; drives the protocol-agnostic bit conversions. *)

type edabits = { ed_arith : Share.shared; ed_bool : Share.shared }

val edabits : Ctx.t -> int -> edabits
(** Random ring elements shared both arithmetically and booleanly — the
    correlation behind A2B conversion. *)

type divmask = {
  dm_r : Share.shared;  (** r, arithmetic *)
  dm_quot : Share.shared;  (** ⌊r/d⌋, arithmetic *)
  dm_rem : Share.shared;  (** r mod d, boolean *)
  dm_msb_b : Share.shared;  (** msb(r), boolean (LSB) *)
  dm_msb_a : Share.shared;  (** msb(r), arithmetic 0/1 *)
}

val divmask : Ctx.t -> d:int -> int -> divmask
(** Masks for division by the public constant [d] (Catrina–de Hoogh):
    uniform ring elements [r] with ⌊r/d⌋ (arithmetic), r mod d (boolean)
    and msb(r) (both ways); drives {!Orq_circuits.Divide.div_pub}. *)

type flag_triple = { fta : Share.flags; ftb : Share.flags; ftc : Share.flags }

val beaver_flags : Ctx.t -> int -> flag_triple
(** Packed boolean Beaver triple over n single-bit lanes: randomness drawn
    and shared per packed word (63 flags per PRG call); preprocessing
    metered byte-identically to {!beaver}. *)

type flag_dabits = { fda_bool : Share.flags; fda_arith : Share.shared }

val dabits_flags : Ctx.t -> int -> flag_dabits
(** daBits with a packed boolean side (per-word draws); metered
    byte-identically to {!dabits}. *)

val random_shared : Ctx.t -> Share.enc -> int -> Share.shared
(** A secret-shared random vector unknown to every party. *)
