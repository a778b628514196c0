(** The ORQ dataflow API (§2.2): relational operators as transformations on
    secret-shared tables, chained to build query plans — the programming
    model of Listing 1. Every operator is fully oblivious: output sizes and
    access patterns depend only on public input sizes. *)

open Orq_proto

type order = Tablesort.order = Asc | Desc

(* Streaming operator boundary: when out-of-core execution is on, park the
   result's live columns into the budget-managed store so tables at rest
   stay evictable between operators; monolithic per-operator working sets
   ride above the budget only transiently. No-op when streaming is off. *)
let parked (t : Table.t) : Table.t =
  if Orq_util.Chunkvec.streaming_enabled () then Table.park t;
  t

(* ------------------------------------------------------------------ *)
(* Row-local operators                                                 *)
(* ------------------------------------------------------------------ *)

(** SELECT ... WHERE: evaluate the predicate obliviously and fold it into
    the validity column. *)
let filter (t : Table.t) (p : Expr.pred) : Table.t =
  Ctx.with_label (Table.ctx t) "filter" @@ fun () ->
  parked (Table.and_valid t (Expr.eval_pred t p))

(** Attach a derived column (e.g. Revenue = Price * (100 - Discount) / 100). *)
let map (t : Table.t) ~dst ?width (e : Expr.num) : Table.t =
  let c = Expr.eval_col t e in
  let c = match width with Some w -> { c with Column.width = w } | None -> c in
  parked (Table.set_col t dst c)

(* ------------------------------------------------------------------ *)
(* Sort / limit / distinct                                             *)
(* ------------------------------------------------------------------ *)

(** ORDER BY: valid rows float to the top (validity is a leading descending
    key), then the user keys apply. *)
let order_by (t : Table.t) (specs : (string * order) list) : Table.t =
  Ctx.with_label (Table.ctx t) "orderby" @@ fun () ->
  parked (Tablesort.sort ~lead:[ (t.Table.valid, 1, Tablesort.Desc) ] t specs)

(** LIMIT k (after an ORDER BY): keep the first k physical rows. *)
let limit (t : Table.t) k : Table.t = Table.take_rows t k

(** DISTINCT on a composite key: sort and keep each group's first row. *)
let distinct (t : Table.t) (keys : string list) : Table.t =
  let ctx = Table.ctx t in
  Ctx.with_label ctx "distinct" @@ fun () ->
  let t =
    Tablesort.sort
      ~lead:[ (t.Table.valid, 1, Tablesort.Asc) ]
      t
      (List.map (fun k -> (k, Asc)) keys)
  in
  let key_shares =
    (t.Table.valid, 1)
    :: List.map (fun k -> (Table.column t k, Table.width t k)) keys
  in
  let dist = Aggnet.distinct_bits ctx ~keys:key_shares in
  parked (Table.and_valid t dist)

(* MIN/MAX lanes (is_min, width, condition bit, values): rows whose
   condition bit is 0 become the identity of the fold (one fused select),
   then every lane folds to one value in a lockstep log-depth tree — each
   level's comparisons and selections are shared rounds across lanes. *)
let minmax_fold (ctx : Ctx.t)
    (lanes : (bool * int * Share.shared * Share.shared) array) :
    Share.shared array =
  let module Mx = Orq_circuits.Mux in
  let module Cp = Orq_circuits.Compare in
  if Array.length lanes = 0 then [||]
  else begin
    let ws = Array.map (fun (_, w, _, _) -> w) lanes in
    let cur =
      Mx.select_many ~widths:ws ctx
        (Array.map
           (fun (is_min, w, b, x) ->
             let ident = if is_min then Orq_util.Ring.mask w else 0 in
             (b, Share.public ctx Share.Bool (Share.length x) ident, x))
           lanes)
    in
    while Array.exists (fun s -> Share.length s > 1) cur do
      let act =
        Array.of_list
          (List.filter
             (fun i -> Share.length cur.(i) > 1)
             (List.init (Array.length cur) Fun.id))
      in
      let parts =
        Array.map
          (fun i ->
            let s = cur.(i) in
            let n = Share.length s in
            let half = n / 2 in
            ( Share.sub_range s 0 half,
              Share.sub_range s half half,
              if n mod 2 = 1 then Some (Share.sub_range s (n - 1) 1) else None ))
          act
      in
      let aws = Array.map (fun i -> ws.(i)) act in
      let lts =
        Cp.lt_many ctx
          (Array.mapi
             (fun j i ->
               let a, b, _ = parts.(j) in
               (a, b, ws.(i)))
             act)
      in
      let sels =
        Mx.select_many ~widths:aws ctx
          (Array.mapi
             (fun j i ->
               let a, b, _ = parts.(j) in
               let is_min, _, _, _ = lanes.(i) in
               if is_min then (lts.(j), b, a) else (lts.(j), a, b))
             act)
      in
      Array.iteri
        (fun j i ->
          let _, _, rest = parts.(j) in
          cur.(i) <-
            (match rest with Some r -> Share.append sels.(j) r | None -> sels.(j)))
        act
    done;
    cur
  end

(* ------------------------------------------------------------------ *)
(* GROUP BY aggregation                                                *)
(* ------------------------------------------------------------------ *)

type aggfn =
  | Sum
  | Count
  | Min
  | Max
  | Avg
  | Custom of (Ctx.t -> Share.shared -> Share.shared -> Share.shared)
      (** pairwise combine on boolean shares; must be self-decomposable *)

type agg = { src : string; dst : string; fn : aggfn }

let sum_width (t : Table.t) w =
  min (w + Orq_util.Ring.log2_ceil (Table.nrows t) + 1) 58

let count_width (t : Table.t) = Orq_util.Ring.log2_ceil (Table.nrows t) + 1

(* Build the Aggnet specs for one dataflow aggregation; Avg expands to a
   sum/count pair plus a post-division. Each entry is
   (spec, finisher tag, width, signedness of result, destination name).
   The finisher is a tag rather than a closure so [aggregate] can run all
   [`A2b] finishes through one fused conversion. *)
let expand_agg (t : Table.t) (a : agg) :
    (Aggnet.spec * [ `A2b | `Id ] * int * bool * string) list =
  let ctx = Table.ctx t in
  match a.fn with
  | Sum ->
      let src = Table.find t a.src in
      let w = sum_width t src.Column.width in
      let col = Column.as_arith ctx src in
      [
        ( { Aggnet.col; func = Aggnet.Sum; keys = Aggnet.Group; width = w },
          `A2b,
          w,
          src.Column.signed,
          a.dst );
      ]
  | Count ->
      let w = count_width t in
      let col = Share.public ctx Share.Arith (Table.nrows t) 1 in
      [
        ( { Aggnet.col; func = Aggnet.Sum; keys = Aggnet.Group; width = w },
          `A2b,
          w,
          false,
          a.dst );
      ]
  | Min ->
      (* unsigned comparisons: signed min/max would need the sign-flip map *)
      let w = Table.width t a.src in
      [
        ( {
            Aggnet.col = Table.column t a.src;
            func = Aggnet.Min w;
            keys = Aggnet.Group;
            width = w;
          },
          `Id,
          w,
          false,
          a.dst );
      ]
  | Max ->
      let w = Table.width t a.src in
      [
        ( {
            Aggnet.col = Table.column t a.src;
            func = Aggnet.Max w;
            keys = Aggnet.Group;
            width = w;
          },
          `Id,
          w,
          false,
          a.dst );
      ]
  | Custom f ->
      let w = Table.width t a.src in
      [
        ( {
            Aggnet.col = Table.column t a.src;
            func = Aggnet.Custom f;
            keys = Aggnet.Group;
            width = w;
          },
          `Id,
          w,
          false,
          a.dst );
      ]
  | Avg ->
      (* expands to hidden sum and count columns; the (unsigned) division
         happens in [aggregate] once both results exist *)
      let src = Table.find t a.src in
      let ws = sum_width t src.Column.width in
      let wc = count_width t in
      let col = Column.as_arith ctx src in
      let ones = Share.public ctx Share.Arith (Table.nrows t) 1 in
      [
        ( { Aggnet.col; func = Aggnet.Sum; keys = Aggnet.Group; width = ws },
          `A2b,
          ws,
          false,
          a.dst ^ "#sum" );
        ( { Aggnet.col = ones; func = Aggnet.Sum; keys = Aggnet.Group; width = wc },
          `A2b,
          wc,
          false,
          a.dst ^ "#count" );
      ]

(* The sort body (Protocol 1): sorts on the keys, runs the aggregation
   network, and keeps one valid row per group (the one holding the group
   total). *)
let sort_aggregate (t : Table.t) ~(keys : string list) ~(aggs : agg list) :
    Table.t =
  let ctx = Table.ctx t in
  let t =
    Tablesort.sort
      ~lead:[ (t.Table.valid, 1, Tablesort.Asc) ]
      t
      (List.map (fun k -> (k, Asc)) keys)
  in
  let key_shares =
    (t.Table.valid, 1)
    :: List.map (fun k -> (Table.column t k, Table.width t k)) keys
  in
  let expanded = List.concat_map (expand_agg t) aggs in
  let results =
    Aggnet.run ctx ~keys:key_shares (List.map (fun (sp, _, _, _, _) -> sp) expanded)
  in
  (* every sum/count result converts through one fused A2B *)
  let conv =
    Orq_circuits.Convert.a2b_many ctx
      (Array.of_list
         (List.concat
            (List.map2
               (fun (_, fin, w, _, _) r ->
                 match fin with `A2b -> [ (r, w) ] | `Id -> [])
               expanded results)))
  in
  let ci = ref 0 in
  let finished =
    List.map2
      (fun (_, fin, w, signed, dst) r ->
        let v =
          match fin with
          | `A2b ->
              let c = conv.(!ci) in
              incr ci;
              c
          | `Id -> r
        in
        (dst, Column.of_shared ~signed ~width:w v))
      expanded results
  in
  let t =
    List.fold_left (fun t (dst, c) -> Table.set_col t dst c) t finished
  in
  (* resolve AVG divisions *)
  let t =
    List.fold_left
      (fun t a ->
        match a.fn with
        | Avg ->
            let s = Table.find t (a.dst ^ "#sum") in
            let c = Table.find t (a.dst ^ "#count") in
            let w = s.Column.width in
            let q, _ =
              Orq_circuits.Divide.udiv ctx ~w (Column.data s)
                (Column.as_bool ctx c)
            in
            Table.drop_cols
              (Table.set_col t a.dst (Column.of_shared ~width:w q))
              [ a.dst ^ "#sum"; a.dst ^ "#count" ]
        | Sum | Count | Min | Max | Custom _ -> t)
      t aggs
  in
  let last = Aggnet.last_of_group_bits ctx ~keys:key_shares in
  Table.project (Table.and_valid t last) (keys @ List.map (fun a -> a.dst) aggs)

(* The one-hot body (DESIGN.md, "GROUP BY over declared domains"): every
   key declares a public domain, so the K groups are known in advance.
   Row i belongs to group g iff it is valid and each key's low
   ⌈log₂ |domain|⌉ bits equal g's value there — sound because the share-time
   check puts every valid key in its domain, where those bits are
   distinct. One fused equality over the n·K pairs and one daBit
   conversion give the membership bits; SUM/AVG sums are local per-group
   sums of one fused multiply, COUNT the local sum of the bits, MIN/MAX
   K masked folds per lane in lockstep. The finish runs over K rows: one
   fused A2B, count > 0 as each row's valid bit, and the AVG divisions.
   Nothing is opened; the output has K physical rows, whose keys are
   public constants. With no keys this is the whole-table aggregate: K = 1,
   the valid bit is the membership bit and the one row is always valid. *)
let onehot_aggregate ~name (t : Table.t) ~(keys : string list)
    ~(domains : (int * int) list) ~(aggs : agg list) : Table.t =
  if List.exists (fun a -> match a.fn with Custom _ -> true | _ -> false) aggs
  then invalid_arg "aggregate: custom combine functions need group keys and the sort body";
  let ctx = Table.ctx t in
  let module Cv = Orq_circuits.Convert in
  let module Cp = Orq_circuits.Compare in
  let n = Table.nrows t in
  let sizes = List.map (fun (lo, hi) -> hi - lo + 1) domains in
  let k = List.fold_left ( * ) 1 sizes in
  let nk = n * k in
  let bits = List.map Orq_util.Ring.log2_ceil sizes in
  (* group g's value of each key: mixed radix, first key most significant *)
  let key_values =
    List.mapi
      (fun j (lo, _) ->
        let inner =
          List.fold_left ( * ) 1 (List.filteri (fun i _ -> i > j) sizes)
        in
        let size = List.nth sizes j in
        Array.init k (fun g -> lo + (g / inner mod size)))
      domains
  in
  (* row i's copy for group g sits at pair g·n + i: group-major, so a
     group's rows are contiguous *)
  let spread s = if k = 1 then s else Share.gather s (Array.init nk (fun p -> p mod n)) in
  let membership () =
    if keys = [] then t.Table.valid
    else begin
      (* per row: each key's low bits side by side, then the valid bit *)
      let packed, pattern, width =
        List.fold_left2
          (fun (acc, pat, off) key (b, vals) ->
            let low =
              Mpc.and_mask (Column.as_bool ctx (Table.find t key)) (Orq_util.Ring.mask b)
            in
            ( Mpc.xor acc (Mpc.lshift low off),
              Array.mapi (fun g p -> p lor ((vals.(g) land Orq_util.Ring.mask b) lsl off)) pat,
              off + b ))
          (Share.public ctx Share.Bool n 0, Array.make k 0, 0)
          keys
          (List.combine bits key_values)
      in
      let packed = Mpc.xor packed (Mpc.lshift (Mpc.and_mask t.Table.valid 1) width) in
      Cp.eq ctx ~w:(width + 1) (spread packed)
        (Share.public_vec ctx Share.Bool
           (Array.init nk (fun p -> pattern.(p / n) lor (1 lsl width))))
    end
  in
  let group_sums (s : Share.shared) =
    Share.map_vectors
      (fun v ->
        Array.init k (fun g ->
            let acc = ref 0 in
            for i = g * n to (g * n) + n - 1 do
              acc := !acc + v.(i)
            done;
            !acc))
      s
  in
  let src_col a = Table.find t a.src in
  let sum_lanes =
    List.filter_map
      (fun a ->
        match a.fn with
        | Sum | Avg -> Some (a, sum_width t (src_col a).Column.width)
        | _ -> None)
      aggs
  in
  let sum_srcs = List.sort_uniq compare (List.map (fun (a, _) -> a.src) sum_lanes) in
  let need_count =
    keys <> [] || List.exists (fun a -> match a.fn with Count | Avg -> true | _ -> false) aggs
  in
  (* the membership bits and the sources' B2A conversions are independent
     tracks: their rounds overlap *)
  let member_b = ref t.Table.valid in
  let tracks =
    Mpc.fuse_rounds ctx
      (Array.of_list
         ((fun () ->
            member_b := membership ();
            if need_count || sum_lanes <> [] then Cv.bit_b2a ctx !member_b
            else !member_b)
         :: List.map
              (fun src () -> Column.as_arith ctx (Table.find t src))
              sum_srcs))
  in
  let member_b = !member_b and member_a = tracks.(0) in
  let arith = List.combine sum_srcs (List.tl (Array.to_list tracks)) in
  let products =
    if sum_lanes = [] then [||]
    else
      Mpc.mul_many
        ~widths:(Array.of_list (List.map snd sum_lanes))
        ctx
        (Array.of_list (List.map (fun (a, _) -> spread (List.assoc a.src arith)) sum_lanes))
        (Array.of_list (List.map (fun _ -> member_a) sum_lanes))
  in
  let wc = count_width t in
  (* one fused A2B: the group counts, then every sum lane *)
  let conv =
    Array.to_list
      (Cv.a2b_many ctx
         (Array.of_list
            ((if need_count then [ (group_sums member_a, wc) ] else [])
            @ List.mapi (fun i (_, w) -> (group_sums products.(i), w)) sum_lanes)))
  in
  let count, sums = if need_count then (Some (List.hd conv), List.tl conv) else (None, conv) in
  let count () = Option.get count in
  let totals = List.combine (List.map fst sum_lanes) sums in
  let mm =
    List.filter_map
      (fun a ->
        match a.fn with
        | Min -> Some (a, true)
        | Max -> Some (a, false)
        | _ -> None)
      aggs
  in
  let avgs = List.filter (fun a -> match a.fn with Avg -> true | _ -> false) aggs in
  (* the MIN/MAX folds, the count > 0 test and the divisions are
     independent tracks *)
  let extremes = ref [] and valid = ref (Share.public ctx Share.Bool 1 1)
  and quotients = ref [] in
  ignore
    (Mpc.fuse_rounds ctx
       [|
         (fun () ->
           (* one lane per (MIN/MAX, group), agg-major *)
           let folded =
             minmax_fold ctx
               (Array.of_list
                  (List.concat_map
                     (fun (a, is_min) ->
                       let c = src_col a in
                       let x = Column.as_bool ctx c in
                       List.init k (fun g ->
                           ( is_min,
                             c.Column.width,
                             (if k = 1 then member_b else Share.sub_range member_b (g * n) n),
                             x )))
                     mm))
           in
           extremes :=
             List.mapi
               (fun i (a, _) ->
                 (a, Share.concat (Array.to_list (Array.sub folded (i * k) k))))
               mm);
         (fun () ->
           if keys <> [] then
             valid :=
               Mpc.xor_pub
                 (Cp.eq ctx ~w:wc (count ()) (Share.public ctx Share.Bool k 0))
                 1);
         (fun () ->
           quotients :=
             List.map
               (fun a ->
                 let w = sum_width t (src_col a).Column.width in
                 (a, fst (Orq_circuits.Divide.udiv ctx ~w (List.assq a totals) (count ()))))
               avgs);
       |]);
  let key_cols =
    List.map2
      (fun key (vals, d) ->
        let c = Table.find t key in
        ( key,
          Column.of_shared ~signed:c.Column.signed ~domain:d ~width:c.Column.width
            (Share.public_vec ctx Share.Bool vals) ))
      keys
      (List.combine key_values domains)
  in
  let agg_cols =
    List.map
      (fun a ->
        let col =
          match a.fn with
          | Sum ->
              let c = src_col a in
              Column.of_shared ~signed:c.Column.signed
                ~width:(sum_width t c.Column.width) (List.assq a totals)
          | Count -> Column.of_shared ~width:wc (count ())
          | Avg ->
              Column.of_shared
                ~width:(sum_width t (src_col a).Column.width)
                (List.assq a !quotients)
          | Min | Max ->
              Column.of_shared ~width:(src_col a).Column.width (List.assq a !extremes)
          | Custom _ -> assert false
        in
        (a.dst, col))
      aggs
  in
  Table.of_columns ctx name ~valid:!valid (key_cols @ agg_cols)

exception Unsupported of string

(* AVG divides with the unsigned circuit; a signed source would come back
   as an unsigned quotient, so it is refused rather than answered wrong. *)
let check_avg_unsigned (t : Table.t) (a : agg) =
  match a.fn with
  | Avg when (Table.find t a.src).Column.signed ->
      raise
        (Unsupported
           (Printf.sprintf
              "AVG(%s): %s is a signed column and the division is unsigned; \
               a signed average is not supported"
              a.src a.src))
  | _ -> ()

(** GROUP BY [keys] evaluating the aggregations [aggs] (the paper's
    [.aggregate()]). Two bodies, chosen per node from public shape by
    {!Joincost.choose_group_logged}: when every key declares a public
    domain, one-hot aggregation into the K = product of the domain sizes
    groups (K output rows, no sort); otherwise sort + aggregation network
    (one valid row per group, at the group's last row). Either way the
    result holds the keys and the aggregate destinations only. AVG
    divides with the fully private non-restoring division circuit; a
    signed AVG source raises {!Unsupported}. *)
let aggregate (t : Table.t) ~(keys : string list) ~(aggs : agg list) : Table.t =
  List.iter (check_avg_unsigned t) aggs;
  let ctx = Table.ctx t in
  Ctx.with_label ctx "aggregate" @@ fun () ->
  let domains = List.map (fun k -> (Table.find t k).Column.domain) keys in
  let domains =
    if List.for_all Option.is_some domains then Some (List.map Option.get domains)
    else None
  in
  let choice =
    Joincost.choose_group_logged
      ~node:("aggregate by " ^ String.concat "," keys)
      ~n:(Table.nrows t)
      ~domains:(Option.map (List.map (fun (lo, hi) -> hi - lo + 1)) domains)
      ~custom:(List.exists (fun a -> match a.fn with Custom _ -> true | _ -> false) aggs)
  in
  parked
    (match (choice, domains) with
    | Joincost.Group_domain, Some domains ->
        onehot_aggregate ~name:t.Table.name t ~keys ~domains ~aggs
    | _ -> sort_aggregate t ~keys ~aggs)

(** Whole-table aggregation (no grouping key): the one-hot body with K = 1
    — validity-masked local sums for SUM/COUNT/AVG, no sorting at all,
    which is why the paper's Q6 is its cheapest query — and a log-depth
    compare tree over validity-masked values for MIN/MAX. Returns a
    one-row table. *)
let global_aggregate (t : Table.t) ~(aggs : agg list) : Table.t =
  List.iter (check_avg_unsigned t) aggs;
  Ctx.with_label (Table.ctx t) "globalagg" @@ fun () ->
  onehot_aggregate ~name:(t.Table.name ^ "_agg") t ~keys:[] ~domains:[] ~aggs

(** Broadcast the single row of [scalar] (e.g. a global aggregate) as a new
    constant column of [t] — a local share replication. *)
let with_scalar (t : Table.t) ~(scalar : Table.t) ~(src : string)
    ~(dst : string) : Table.t =
  let c = Table.find scalar src in
  if Column.length c <> 1 then invalid_arg "with_scalar: not a scalar";
  let data =
    Share.map_vectors
      (fun vk -> Array.make (Table.nrows t) vk.(0))
      (Column.data c)
  in
  Table.set_col t dst (Column.with_data c data)

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

type join_agg = Joinagg.agg_spec = {
  a_src : string;
  a_dst : string;
  a_func : Aggnet.func;
  a_width : int;
}

(* The public shape of a join node, handed to the cost-based operator
   selection (Joincost): cardinalities and widths only. *)
let join_shape (left : Table.t) (right : Table.t) ~(on : string list)
    ~(copy : string list) ~(aggs : bool) ~(bounded : bool)
    ~(variant : Joincost.variant) : Joincost.shape =
  let keys_w =
    List.map (fun k -> max (Table.width left k) (Table.width right k)) on
  in
  let pay_w =
    List.filter_map
      (fun (name, c) ->
        if List.mem name on then None else Some c.Column.width)
      right.Table.cols
  in
  {
    Joincost.j_n = Table.nrows left;
    j_m = Table.nrows right;
    j_key_w = keys_w;
    j_copy_w = List.map (fun c -> Table.width left c) copy;
    j_pay_w = pay_w;
    j_aggs = aggs;
    j_bounded = bounded;
    j_variant = variant;
  }

(** INNER JOIN (one-to-many: [left] must have unique keys — pre-aggregate
    first for many-to-many, §3.6). [copy] propagates left columns into the
    matching right rows. The physical operator — sort-based
    join-aggregation, LINQ-style linear join, or the quadratic baseline —
    is chosen per node by the {!Joincost} cost model (override with
    [ORQ_JOIN]). *)
let inner_join ?copy ?aggs ?trim (left : Table.t) (right : Table.t)
    ~(on : string list) : Table.t =
  let ctx = Table.ctx left in
  let has_aggs = match aggs with Some (_ :: _) -> true | _ -> false in
  let shape =
    join_shape left right ~on
      ~copy:(Option.value copy ~default:[])
      ~aggs:has_aggs
      ~bounded:(trim = Some `Always)
      ~variant:Joincost.J_inner
  in
  let node =
    Printf.sprintf "%s \xe2\x8b\x88 %s" left.Table.name right.Table.name
  in
  parked
    (match Joincost.choose_logged ctx ~node shape with
    | Joincost.Linear -> Linjoin.join ctx `Inner ?copy ~left ~right ~on ()
    | Joincost.Quad -> Linjoin.quad ctx ?copy ~left ~right ~on ()
    | Joincost.Sort ->
        Joinagg.join ctx Joinagg.V_inner ?copy ?aggs ?trim ~left ~right ~on ())

let left_outer_join ?copy ?aggs (left : Table.t) (right : Table.t)
    ~(on : string list) : Table.t =
  parked
    (Joinagg.join (Table.ctx left) Joinagg.V_left_outer ?copy ?aggs ~left
       ~right ~on ())

let right_outer_join ?copy ?aggs (left : Table.t) (right : Table.t)
    ~(on : string list) : Table.t =
  parked
    (Joinagg.join (Table.ctx left) Joinagg.V_right_outer ?copy ?aggs ~left
       ~right ~on ())

let full_outer_join ?copy ?aggs (left : Table.t) (right : Table.t)
    ~(on : string list) : Table.t =
  parked
    (Joinagg.join (Table.ctx left) Joinagg.V_full_outer ?copy ?aggs ~left
       ~right ~on ())

(** Unique-key inner join (Appendix C): both sides' keys are unique in the
    public schema, so the aggregation network is skipped — an oblivious
    PSI-style join bounded by min(|L|, |R|). Used for the SecretFlow
    comparison, whose join requires unique keys. *)
let inner_join_unique ?copy ?trim (left : Table.t) (right : Table.t)
    ~(on : string list) : Table.t =
  parked (Joinagg.join_unique (Table.ctx left) ?copy ?trim ~left ~right ~on ())

(** COUNT(DISTINCT over) per group: DISTINCT on (keys, over) followed by a
    grouped count — the §3.6 pattern ORQ uses to evaluate count-distinct
    over many-to-many joins without materializing them. *)
let count_distinct (t : Table.t) ~(keys : string list) ~(over : string list)
    ~(dst : string) : Table.t =
  let d = distinct t (keys @ over) in
  aggregate d ~keys
    ~aggs:[ { src = List.hd (keys @ over); dst; fn = Count } ]

(** THETA JOIN (§3.4): a conjunctive predicate containing at least one
    equality — the equalities bound the output size and drive the
    join-aggregation operator; the remaining conditions become an oblivious
    filter over the joined table. *)
let theta_join ?copy ?aggs ?trim (left : Table.t) (right : Table.t)
    ~(on : string list) ~(theta : Expr.pred) : Table.t =
  filter (inner_join ?copy ?aggs ?trim left right ~on) theta

(** SEMI JOIN — keep left rows that match some right row. Implemented as
    the swapped inner join of Appendix C.1, then projected back to the
    left schema. Handles duplicates on both sides. *)
let semi_join ?trim (left : Table.t) (right : Table.t) ~(on : string list) :
    Table.t =
  let ctx = Table.ctx left in
  let right' = Table.project right on in
  let shape =
    join_shape right' left ~on ~copy:[] ~aggs:false
      ~bounded:(trim = Some `Always) ~variant:Joincost.J_semi
  in
  let node =
    Printf.sprintf "%s \xe2\x8b\x89 %s" left.Table.name right.Table.name
  in
  let joined =
    (* the linear operator needs no unique-key contract here: with no copy
       columns only membership in the build side matters, and duplicate
       build keys share one fingerprint *)
    match Joincost.choose_logged ctx ~node shape with
    | Joincost.Linear -> Linjoin.join ctx `Inner ~left:right' ~right:left ~on ()
    | Joincost.Quad | Joincost.Sort ->
        Joinagg.join ctx Joinagg.V_inner ?trim ~left:right' ~right:left ~on ()
  in
  parked (Table.rename (Table.project joined (Table.col_names left)) left.Table.name)

(** ANTI JOIN — keep left rows with no match in right (swapped right-outer
    with cross-table valid propagation, Appendix C.1). *)
let anti_join ?trim (left : Table.t) (right : Table.t) ~(on : string list) :
    Table.t =
  let ctx = Table.ctx left in
  let right' = Table.project right on in
  let shape =
    join_shape right' left ~on ~copy:[] ~aggs:false
      ~bounded:(trim = Some `Always) ~variant:Joincost.J_anti
  in
  let node =
    Printf.sprintf "%s \xe2\x96\xb7 %s" left.Table.name right.Table.name
  in
  let joined =
    match Joincost.choose_logged ctx ~node shape with
    | Joincost.Linear -> Linjoin.join ctx `Anti ~left:right' ~right:left ~on ()
    | Joincost.Quad | Joincost.Sort ->
        Joinagg.join ctx Joinagg.V_anti ?trim ~left:right' ~right:left ~on ()
  in
  parked (Table.rename (Table.project joined (Table.col_names left)) left.Table.name)

(* ------------------------------------------------------------------ *)
(* Set operations                                                      *)
(* ------------------------------------------------------------------ *)

(** UNION ALL of tables with identical schemas. *)
let concat_tables (a : Table.t) (b : Table.t) : Table.t =
  if Table.col_names a <> Table.col_names b then
    invalid_arg "concat_tables: schema mismatch";
  Table.of_columns (Table.ctx a) a.Table.name
    ~valid:(Share.append a.Table.valid b.Table.valid)
    (List.map
       (fun (n, ca) ->
         let cb = Table.find b n in
         let joined = Column.append ca cb in
         ( n,
           {
             joined with
             Column.width = max ca.Column.width cb.Column.width;
             signed = ca.Column.signed || cb.Column.signed;
             domain =
               (match (ca.Column.domain, cb.Column.domain) with
               | Some (la, ha), Some (lb, hb) -> Some (min la lb, max ha hb)
               | _ -> None);
           } ))
       a.Table.cols)
