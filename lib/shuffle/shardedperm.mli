(** Sharded permutations (Appendix A.3): a secret permutation as a
    composition of local permutations, each known to one shuffle group but
    none to the adversary. Generation is PRG-based for the honest-majority
    protocols and uses preprocessing permutation correlations (Peceny et
    al.) in 2PC; application is permute-and-reshare per component, metered
    at the paper's Table 1 totals. The Mal-HM redundant resharing detects
    tampering. *)

open Orq_proto

type t = {
  n : int;
  components : int array array;  (** applied left to right *)
}

val gen : Ctx.t -> int -> t
(** Random sharded permutation of [n] elements (2PC correlations charged
    to preprocessing). *)

val plaintext : t -> int array
(** The underlying permutation — test-only; no party could compute it. *)

(** {2 Application}

    One streaming core: the local permute and per-component resharing run
    chunk-at-a-time through the {!Orq_util.Chunkvec} store, so a
    multi-chunk column's working set is one column (with cold chunks
    evictable), while the metered rounds/bits/messages are charged once at
    the whole-logical-vector level. {!apply} and {!apply_inverse} are its
    single-chunk special case. *)

val apply_table_c :
  ?width:int -> Ctx.t -> Share.chunked list -> t -> Share.chunked list
(** One permutation over several columns: rounds of a single application,
    bytes scaling with data volume — what lets TableSort permute a whole
    table once. *)

val apply : ?width:int -> Ctx.t -> Share.shared -> t -> Share.shared
val apply_inverse : ?width:int -> Ctx.t -> Share.shared -> t -> Share.shared

val apply_flags : Ctx.t -> Share.flags -> t -> Share.flags
(** Apply to a packed flag sharing: the flags travel as single bits
    (metered at width 1), the local permutes and resharing noise run
    over packed words. *)
