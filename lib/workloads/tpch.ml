(** Registry of the TPC-H workload: all 22 queries, each as an MPC dataflow
    plan plus its plaintext reference, with its declared result columns
    (the paper validates every query against SQLite, §5.1). *)

type query = (Tpch_gen.mpc, Tpch_gen.plain) Query.t

module A = Tpch_queries_a
module B = Tpch_queries_b

let all : query list =
  [
    Query.make "Q1" ~run:A.q1_run ~reference:A.q1_ref A.q1_cols;
    Query.make "Q2" ~run:A.q2_run ~reference:A.q2_ref A.q2_cols;
    Query.make "Q3" ~run:A.q3_run ~reference:A.q3_ref A.q3_cols;
    Query.make "Q4" ~run:A.q4_run ~reference:A.q4_ref A.q4_cols;
    Query.make "Q5" ~run:A.q5_run ~reference:A.q5_ref A.q5_cols;
    Query.make "Q6" ~run:A.q6_run ~reference:A.q6_ref A.q6_cols;
    Query.make "Q7" ~run:A.q7_run ~reference:A.q7_ref A.q7_cols;
    Query.make "Q8" ~run:A.q8_run ~reference:A.q8_ref A.q8_cols;
    Query.make "Q9" ~run:A.q9_run ~reference:A.q9_ref A.q9_cols;
    Query.make "Q10" ~run:A.q10_run ~reference:A.q10_ref A.q10_cols;
    Query.make "Q11" ~run:A.q11_run ~reference:A.q11_ref A.q11_cols;
    Query.make "Q12" ~run:B.q12_run ~reference:B.q12_ref B.q12_cols;
    Query.make "Q13" ~run:B.q13_run ~reference:B.q13_ref B.q13_cols;
    Query.make "Q14" ~run:B.q14_run ~reference:B.q14_ref B.q14_cols;
    Query.make "Q15" ~run:B.q15_run ~reference:B.q15_ref B.q15_cols;
    Query.make "Q16" ~run:B.q16_run ~reference:B.q16_ref B.q16_cols;
    Query.make "Q17" ~run:B.q17_run ~reference:B.q17_ref B.q17_cols;
    Query.make "Q18" ~run:B.q18_run ~reference:B.q18_ref B.q18_cols;
    Query.make "Q19" ~run:B.q19_run ~reference:B.q19_ref B.q19_cols;
    Query.make "Q20" ~run:B.q20_run ~reference:B.q20_ref B.q20_cols;
    Query.make "Q21" ~run:B.q21_run ~reference:B.q21_ref B.q21_cols;
    Query.make "Q22" ~run:B.q22_run ~reference:B.q22_ref B.q22_cols;
  ]

let find name = List.find (fun (q : query) -> q.Query.name = name) all
