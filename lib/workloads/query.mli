(** One workload query: an MPC dataflow plan over a shared database of
    type ['m], its plaintext reference over the same data in the clear
    (type ['p]), and the columns it declares as its answer. The paper
    validates every query against a plaintext engine (§5.1); the analyst
    learns the declared answer and nothing more. *)

type ('m, 'p) t = private {
  name : string;
  run : 'm -> Orq_core.Table.t;
      (** returns exactly [compare_cols], in that order, plus validity *)
  reference : 'p -> Orq_plaintext.Ptable.t;
  compare_cols : string list;
}

val make :
  string ->
  run:('m -> Orq_core.Table.t) ->
  reference:('p -> Orq_plaintext.Ptable.t) ->
  string list ->
  ('m, 'p) t
(** [make name ~run ~reference cols] registers a query whose [run]
    projects the plan's last table onto the declared columns [cols]
    (a local operation), so {!Orq_core.Table.reveal} opens nothing else.
    The record is private: every query is built here. *)

val validate :
  ('m, 'p) t -> 'p -> Orq_core.Table.t -> bool * int list list * int list list
(** [validate q plain result] checks a result [q.run] already computed
    against the plaintext engine: compare valid rows masked to the MPC
    column widths (signed aggregates are two's complement at their
    width). Returns (ok, mpc rows, reference rows). *)
