(** Registry of the TPC-H workload: all 22 queries, each as an MPC
    dataflow plan plus its plaintext reference, with its declared result
    columns (the paper validates every query against SQLite, §5.1). *)

type query = (Tpch_gen.mpc, Tpch_gen.plain) Query.t

val all : query list

val find : string -> query
(** @raise Not_found for unknown names ("Q1".."Q22"). *)
