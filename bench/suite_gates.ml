(** The query-suite audit's matrix and gates, kept apart from the runner
    so the gates can be tested on hand-built records without running a
    query.

    A cell is one (query, protocol, config) triple; the runner produces
    one {!record} per cell, and every gate is a predicate over the whole
    record list that returns the offending cells (empty = pass). *)

module Comm = Orq_net.Comm
module Netsim = Orq_net.Netsim
module Joincost = Orq_core.Joincost

(* ---- configs ---- *)

type config = {
  label : string;
  fusion : bool;  (** cross-lane round fusion ({!Orq_proto.Mpc.set_fusion}) *)
  bitpack : bool;  (** packed flag lanes ({!Orq_proto.Mpc.set_bitpack}) *)
  join : Joincost.mode;  (** physical join selection *)
}

let default =
  { label = "default"; fusion = true; bitpack = true; join = Joincost.Auto }

let no_fusion = { default with label = "no-fusion"; fusion = false }
let word_flags = { default with label = "word-flags"; bitpack = false }

let forced op =
  { default with label = "join=" ^ Joincost.op_label op; join = Joincost.Force op }

(* The join-heavy queries of the evaluation (§5): multi-way joins over
   customer/orders/lineitem/supplier where operator choice moves the
   bottom line. They alone also run under each forced join operator. *)
let join_targets = [ "Q3"; "Q5"; "Q7"; "Q9"; "Q21" ]

let configs_for query =
  [ default; no_fusion; word_flags ]
  @
  if List.mem query join_targets then
    List.map forced Joincost.[ Sort; Linear; Quad ]
  else []

let is_forced label = String.starts_with ~prefix:"join=" label

(* ---- records ---- *)

type record = {
  query : string;
  proto : string;  (** {!Orq_proto.Ctx.kind_label} *)
  config : string;  (** a {!config} label *)
  ok : bool;  (** result matched the plaintext reference engine *)
  tally : Comm.tally;  (** metered online traffic of the query *)
  joins : string list;  (** physical operator run at each join node *)
  wall_s : float;  (** wall clock of the query (sharing excluded) *)
}

let cell r = Printf.sprintf "%s/%s/%s" r.query r.proto r.config

let find rs ~query ~proto config =
  List.find_opt
    (fun r -> r.query = query && r.proto = proto && r.config = config)
    rs

(* ---- gates ---- *)

let invalid rs = List.filter_map (fun r -> if r.ok then None else Some (cell r)) rs

let duplicated rs =
  let cells = List.map cell rs in
  List.sort_uniq compare
    (List.filter
       (fun c -> List.length (List.filter (( = ) c) cells) > 1)
       cells)

(* Every [config] record must agree with the default cell of its
   (query, protocol) on [same]. *)
let keeps_default ~config ~same rs =
  List.filter_map
    (fun r ->
      if r.config <> config then None
      else
        match find rs ~query:r.query ~proto:r.proto default.label with
        | None -> Some (cell r ^ " (no default cell)")
        | Some d -> if same d.tally r.tally then None else Some (cell r))
    rs

(** Fusion only merges rounds: bits and messages must not move. *)
let fusion_changed_traffic =
  keeps_default ~config:no_fusion.label ~same:(fun a b ->
      a.Comm.t_bits = b.Comm.t_bits && a.Comm.t_messages = b.Comm.t_messages)

(** Packing only changes local work: rounds, bits and messages all stay. *)
let packing_changed_traffic = keeps_default ~config:word_flags.label ~same:( = )

(** Per protocol, the linear join beats the sort join on measured rounds
    or bits on at least min(3, #targets) of the forced-join targets. *)
let linear_short_of_sort rs =
  let sort_label = (forced Joincost.Sort).label in
  let linear_label = (forced Joincost.Linear).label in
  let protos =
    List.sort_uniq compare
      (List.filter_map
         (fun r -> if r.config = sort_label then Some r.proto else None)
         rs)
  in
  List.filter_map
    (fun proto ->
      let sorts =
        List.filter (fun r -> r.proto = proto && r.config = sort_label) rs
      in
      let won =
        List.filter
          (fun s ->
            match find rs ~query:s.query ~proto linear_label with
            | None -> false
            | Some l ->
                l.tally.Comm.t_rounds < s.tally.Comm.t_rounds
                || l.tally.Comm.t_bits < s.tally.Comm.t_bits)
          sorts
      in
      let need = min 3 (List.length sorts) in
      if List.length won >= need then None
      else
        Some
          (Printf.sprintf "%s: linear beats sort on %d/%d (need %d)" proto
             (List.length won) (List.length sorts) need))
    protos

(** Cost-based selection never loses: on every (query, protocol) with
    forced-join cells, the default (auto) cell is within 1.0001x of the
    cheapest forced mode in modeled seconds under the profile the cost
    model prices with. *)
let auto_not_cheapest rs =
  let secs r = Netsim.network_time (Joincost.profile ()) r.tally in
  let pairs =
    List.sort_uniq compare
      (List.filter_map
         (fun r -> if is_forced r.config then Some (r.query, r.proto) else None)
         rs)
  in
  List.filter_map
    (fun (query, proto) ->
      let best =
        List.fold_left
          (fun a r ->
            if r.query = query && r.proto = proto && is_forced r.config then
              min a (secs r)
            else a)
          infinity rs
      in
      match find rs ~query ~proto default.label with
      | None -> Some (Printf.sprintf "%s/%s (no default cell)" query proto)
      | Some d -> if secs d <= best *. 1.0001 then None else Some (cell d))
    pairs

let gates =
  [
    ("every cell validates", invalid);
    ("every cell runs once", duplicated);
    ("no-fusion keeps the default bits/messages", fusion_changed_traffic);
    ("word-flags keeps the default rounds/bits/messages", packing_changed_traffic);
    ("linear beats sort on >= min(3, #targets) queries per protocol",
      linear_short_of_sort);
    ("default (auto) within 1.0001x of the cheapest forced join",
      auto_not_cheapest);
  ]

(** Each gate with the cells that fail it. *)
let check rs = List.map (fun (name, gate) -> (name, gate rs)) gates
