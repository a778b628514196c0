(** The five peer-to-peer TPC-H variations used by SecretFlow-SCQL
    (Figure 5 right): S1/S2 single-table filter-aggregates, S3/S4 PK-FK
    joins with aggregation, S5 an oblivious group-by. *)

val all : (Tpch_gen.mpc, Tpch_gen.plain) Query.t list
