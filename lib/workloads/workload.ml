type family = Tpch | Prior_work | Secretflow

type data = {
  tpch : Tpch_gen.plain Lazy.t;
  other : Other_gen.plain Lazy.t;
}

let suite_sf = 0.0002
let suite_n = 400

let data ?tpch_seed ?other_seed ?(sf = suite_sf) ?(n = suite_n) () =
  {
    tpch = lazy (Tpch_gen.generate ?seed:tpch_seed sf);
    other = lazy (Other_gen.generate ?seed:other_seed n);
  }

let suite_data ?sf ?n () = data ~tpch_seed:99 ~other_seed:31 ?sf ?n ()

type prepared = {
  run : unit -> Orq_core.Table.t;
  validate : Orq_core.Table.t -> bool * int list list * int list list;
}

type t = {
  name : string;
  family : family;
  compare_cols : string list;
  prepare : data -> Orq_proto.Ctx.t -> prepared;
}

let entry family plain share (q : (_, _) Query.t) =
  {
    name = q.Query.name;
    family;
    compare_cols = q.Query.compare_cols;
    prepare =
      (fun data ctx ->
        let p = plain data in
        let mdb = share ctx p in
        {
          run = (fun () -> q.Query.run mdb);
          validate = Query.validate q p;
        });
  }

let on_tpch family =
  entry family (fun d -> Lazy.force d.tpch) Tpch_gen.share

let all =
  List.map (on_tpch Tpch) Tpch.all
  @ List.map
      (entry Prior_work (fun d -> Lazy.force d.other) Other_gen.share)
      Other_queries.all
  @ List.map (on_tpch Secretflow) Secretflow_queries.all

let suite = List.filter (fun e -> e.family <> Secretflow) all
let find name = List.find (fun e -> e.name = name) all

let ctx_seed e = if e.family = Prior_work then 13 else 5
