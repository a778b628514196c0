(** The one registry of runnable workload queries: the 22 TPC-H queries,
    the nine prior-work queries and the five SecretFlow variants, each with
    its family. Every consumer (the CLI, the
    query-suite bench, the certifier, the figure benches, the tests and
    the examples) iterates {!all}. Every entry's run returns exactly its
    declared columns ({!Query.make}). *)

type family = Tpch | Prior_work | Secretflow
(** SecretFlow variants run over the TPC-H tables, like TPC-H itself. *)

type data = {
  tpch : Tpch_gen.plain Lazy.t;
  other : Other_gen.plain Lazy.t;
}
(** Plaintext inputs for both datasets, generated on first use. *)

val data : ?tpch_seed:int -> ?other_seed:int -> ?sf:float -> ?n:int -> unit -> data
(** TPC-H at scale factor [sf] and the prior-work tables at about [n] rows
    each (defaults {!suite_sf} and {!suite_n}); seeds default to the
    generators' own. *)

val suite_sf : float
val suite_n : int

val suite_data : ?sf:float -> ?n:int -> unit -> data
(** The canonical suite dataset: TPC-H seed 99 and prior-work seed 31, at
    {!suite_sf} and {!suite_n} unless overridden. Every registered query
    has a nonempty answer at the default sizes. *)

type prepared = {
  run : unit -> Orq_core.Table.t;
  validate : Orq_core.Table.t -> bool * int list list * int list list;
      (** {!Query.validate} of a result [run] computed: (ok, mpc rows,
          reference rows) *)
}

type t = {
  name : string;
  family : family;
  compare_cols : string list;
  prepare : data -> Orq_proto.Ctx.t -> prepared;
      (** secret-shares the entry's dataset into the context *)
}

val all : t list

val suite : t list
(** The 31 queries of the query suite and the transcript certificate:
    TPC-H and prior-work ({!all} without the SecretFlow variants). *)

val find : string -> t
(** @raise Not_found for unregistered names. *)

val ctx_seed : t -> int
(** The context seed the suite runs an entry under: 5 over TPC-H data,
    13 over the prior-work tables. *)
