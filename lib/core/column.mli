(** Table columns: a secret-shared vector plus its logical bit width and
    signedness. Stored boolean-encoded by default (filters, sorts, joins
    and distinct are comparison-shaped), converted to arithmetic sharing
    on demand, mirroring §2.3's dual representation. A [signed] column
    holds two's-complement values at its width.

    The payload is either [Live] (monolithic {!Share.shared}) or [Parked]
    (budget-managed {!Orq_util.Chunkvec} chunks, evictable to disk);
    {!data} materializes, {!chunked} gives the streaming view under which
    a live column is a single zero-copy chunk. *)

open Orq_proto

type repr = Live of Share.shared | Parked of Share.chunked

type t = { mutable repr : repr; width : int; signed : bool }

val length : t -> int
val enc : t -> Share.enc
val of_plaintext : Ctx.t -> width:int -> int array -> t
val of_shared : ?signed:bool -> width:int -> Share.shared -> t
val of_chunked : ?signed:bool -> width:int -> Share.chunked -> t

val data : t -> Share.shared
(** The monolithic sharing (materializes and caches a parked payload). *)

val with_data : t -> Share.shared -> t
(** Payload replacement preserving width/signedness. *)

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
