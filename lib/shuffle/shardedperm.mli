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

val components_of_kind : Ctx.kind -> int

val apply_cost : Ctx.t -> w:int -> int -> int * int * int
(** (bits, rounds, messages) of one application over n elements of w bits. *)

val gen : Ctx.t -> int -> t
(** Random sharded permutation of [n] elements (2PC correlations charged
    to preprocessing). *)

val plaintext : t -> int array
(** The underlying permutation — test-only; no party could compute it. *)

val apply : ?width:int -> Ctx.t -> Share.shared -> t -> Share.shared
val apply_inverse : ?width:int -> Ctx.t -> Share.shared -> t -> Share.shared

val apply_flags : Ctx.t -> Share.flags -> t -> Share.flags
(** Apply to a packed flag sharing: the flags travel as single bits
    (width-1 {!apply_cost}), the local permutes and resharing noise run
    over packed words. *)

val apply_table :
  ?width:int -> Ctx.t -> Share.shared list -> t -> Share.shared list
(** One permutation over several columns: rounds of a single application,
    bytes scaling with data volume — what lets TableSort permute a whole
    table once. *)

(** {2 Chunked (out-of-core) application}

    Streaming twin of {!apply_table}: the local permute and per-component
    resharing run chunk-at-a-time through the {!Orq_util.Chunkvec} store,
    so a multi-chunk column's working set is one column (with cold chunks
    evictable), while the metered rounds/bits/messages are charged once at
    the whole-logical-vector level and are byte-identical to the
    monolithic path. The monolithic functions are the single-chunk special
    case of their streaming cores. *)

val apply_table_c :
  ?width:int -> Ctx.t -> Share.chunked list -> t -> Share.chunked list
