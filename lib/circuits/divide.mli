(** Oblivious integer division. A secret divisor runs the non-restoring
    circuit the paper uses for fully private averages (§5.1): [w]
    iterations of shift-and-add with a sign-selected ±divisor. A public
    divisor uses a masked opening instead (Catrina–de Hoogh), whose cost
    does not depend on the dividend's width. *)

open Orq_proto

val udiv :
  Ctx.t -> w:int -> Share.shared -> Share.shared ->
  Share.shared * Share.shared
(** [udiv ctx ~w x d] = (quotient, remainder) of unsigned [w]-bit boolean
    sharings with a secret divisor; division by zero is unspecified. *)

val div_pub : Ctx.t -> w:int -> Share.shared -> int -> Share.shared
(** [div_pub ctx ~w x d] = ⌊x/d⌋ as an arithmetic sharing, for an
    arithmetic sharing [x] of values in [0, 2^w) ([w <= 61]) and a public
    divisor [d >= 1] (@raise Invalid_argument otherwise). One opening of
    x + r under a fresh dealer mask, one fused less-than over
    ⌈log₂(d+1)⌉-bit lanes, one single-bit AND and one single-bit B2A: the
    transcript depends only on (protocol, n, d). *)
