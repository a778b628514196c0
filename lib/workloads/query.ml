type ('m, 'p) t = {
  name : string;
  run : 'm -> Orq_core.Table.t;
  reference : 'p -> Orq_plaintext.Ptable.t;
  compare_cols : string list;
}

let make name ~run ~reference compare_cols =
  {
    name;
    run = (fun db -> Orq_core.Table.project (run db) compare_cols);
    reference;
    compare_cols;
  }

let validate q plain result =
  let widths =
    List.map (fun c -> Orq_core.Table.width result c) q.compare_cols
  in
  let mask_row row =
    List.map2 (fun v w -> v land Orq_util.Ring.mask w) row widths
  in
  let mpc_rows =
    List.map mask_row (Orq_core.Table.valid_rows_sorted result q.compare_cols)
  in
  let ref_rows =
    List.map mask_row
      (Orq_plaintext.Ptable.rows_sorted (q.reference plain) q.compare_cols)
  in
  (mpc_rows = ref_rows, mpc_rows, ref_rows)
