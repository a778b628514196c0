(** Table columns: a secret-shared vector plus its logical bit width,
    signedness and an optional declared public value domain. Stored
    boolean-encoded by default (filters, sorts, joins
    and distinct are comparison-shaped), converted to arithmetic sharing
    on demand, mirroring §2.3's dual representation. A [signed] column
    holds two's-complement values at its width.

    The payload is either [Live] (monolithic {!Share.shared}) or [Parked]
    (budget-managed {!Orq_util.Chunkvec} chunks, evictable to disk);
    {!data} materializes, {!chunked} gives the streaming view under which
    a live column is a single zero-copy chunk.

    A [domain] [(lo, hi)] is public schema metadata: the data owner
    checks at share time ({!check_domain}) that every valid row's value
    lies in the inclusive range. Operators that only move values (filter,
    project, rename, sort, shuffle, join carry) keep it; derived columns
    have none. *)

open Orq_proto

type repr = Live of Share.shared | Parked of Share.chunked

type t = {
  mutable repr : repr;
  width : int;
  signed : bool;
  domain : (int * int) option;  (** declared inclusive value range *)
}

val length : t -> int
val enc : t -> Share.enc

val check_domain :
  name:string -> ?valid:int array -> int * int -> int array -> unit
(** Data-owner check before sharing: every value (of a row whose [valid]
    bit is set, when given) lies in the inclusive domain.
    @raise Invalid_argument naming the column, row and value otherwise. *)

val of_plaintext : Ctx.t -> width:int -> ?domain:int * int -> int array -> t
val of_shared : ?signed:bool -> ?domain:int * int -> width:int -> Share.shared -> t
val of_chunked : ?signed:bool -> ?domain:int * int -> width:int -> Share.chunked -> t

val data : t -> Share.shared
(** The monolithic sharing (materializes and caches a parked payload). *)

val with_data : t -> Share.shared -> t
(** Payload replacement preserving width/signedness/domain. *)

val with_chunked : t -> Share.chunked -> t
(** {!with_data} for a chunked payload. *)

val chunked : t -> Share.chunked
(** Chunked view; a live column becomes one zero-copy untracked chunk. *)

val park : t -> unit
(** Move a live payload into budget-managed chunks in place. *)

val as_bool : Ctx.t -> t -> Share.shared
(** Boolean view (identity for boolean-encoded columns). *)

val as_arith : Ctx.t -> t -> Share.shared
(** Arithmetic view, honouring the column's signedness. *)

val reconstruct : t -> Orq_util.Vec.t
val sub_range : t -> int -> int -> t
val append : t -> t -> t
