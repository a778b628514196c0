(* Outside-in operator trace. Nothing in lib/ times operators, so the
   benchmark reconstructs per-operator cost from two public hooks:

   - the transcript recorder keeps the [Ctx.with_label] stack current
     (a 2-slot ring: only [Comm.current_label] is read, never the
     transcript);
   - a passive [Comm.channel] on both the online and the preprocessing
     meter sees every metered event. It timestamps the event and charges
     the wall time since the previous event, plus the event's own rounds
     and bits, to the innermost label active at that event.

   Every interval between [begin_span] and [end_span] is charged to exactly
   one key, so per-key self times sum to the traced wall time, and per-key
   rounds and bits sum to the meters' deltas; [check] verifies the latter. *)

module Comm = Orq_net.Comm
module Ctx = Orq_proto.Ctx

type acc = {
  mutable self_s : float;
  mutable rounds : int;  (** signed: fusion refunds are negative *)
  mutable bits : int;  (** online bits *)
  mutable pre_bits : int;  (** preprocessing bits *)
}

type t = {
  mutable ctx : Ctx.t option;  (** the context the hooks are installed on *)
  accs : (string, acc) Hashtbl.t;
  mutable last : float;
  mutable on0 : Comm.tally;
  mutable pre0 : Comm.tally;
  mutable on_total : Comm.tally;
  mutable pre_total : Comm.tally;
}

let acc t key =
  match Hashtbl.find_opt t.accs key with
  | Some a -> a
  | None ->
      let a = { self_s = 0.; rounds = 0; bits = 0; pre_bits = 0 } in
      Hashtbl.replace t.accs key a;
      a

let charge t ~rounds ~bits ~pre_bits =
  let now = Unix.gettimeofday () in
  let label = match t.ctx with Some c -> Comm.current_label c.Ctx.comm | None -> "" in
  let a = acc t (Layers.key_of_stack label) in
  a.self_s <- a.self_s +. (now -. t.last);
  a.rounds <- a.rounds + rounds;
  a.bits <- a.bits + bits;
  a.pre_bits <- a.pre_bits + pre_bits;
  t.last <- now

let hooks t ~pre =
  let traffic ~rounds ~bits =
    if pre then charge t ~rounds:0 ~bits:0 ~pre_bits:bits
    else charge t ~rounds ~bits ~pre_bits:0
  in
  {
    Comm.ch_round = (fun ~bits ~messages:_ -> traffic ~rounds:1 ~bits);
    ch_traffic = (fun ~bits ~messages:_ -> traffic ~rounds:0 ~bits);
    ch_barrier = (fun k -> traffic ~rounds:k ~bits:0);
    ch_refund = (fun k -> traffic ~rounds:(-k) ~bits:0);
  }

let create () =
  {
    ctx = None;
    accs = Hashtbl.create 32;
    last = 0.;
    on0 = Comm.zero_tally;
    pre0 = Comm.zero_tally;
    on_total = Comm.zero_tally;
    pre_total = Comm.zero_tally;
  }

(* Install the hooks on [ctx]'s meters; totals accumulate across
   installations, on any contexts. The context must not already carry a
   transport channel or a transcript recording. *)
let install t (ctx : Ctx.t) =
  if t.ctx <> None then invalid_arg "Tracer.install: already installed";
  if Comm.channel ctx.comm <> None || Comm.channel ctx.preproc <> None then
    invalid_arg "Tracer.install: a channel is already installed";
  if Comm.recording ctx.comm then
    invalid_arg "Tracer.install: the transcript recorder is in use";
  Comm.start_recording ~capacity:2 ctx.comm;
  Comm.set_channel ctx.comm (Some (hooks t ~pre:false));
  Comm.set_channel ctx.preproc (Some (hooks t ~pre:true));
  t.ctx <- Some ctx

let uninstall t =
  Option.iter
    (fun (c : Ctx.t) ->
      Comm.set_channel c.comm None;
      Comm.set_channel c.preproc None;
      Comm.stop_recording c.comm)
    t.ctx;
  t.ctx <- None

let installed t =
  match t.ctx with Some c -> c | None -> invalid_arg "Tracer: not installed"

(* A traced span (one query): the time before its first event is charged
   with that event, the time after its last event by [end_span], both to
   the label active then. *)
let begin_span t =
  let c = installed t in
  t.on0 <- Comm.snapshot c.comm;
  t.pre0 <- Comm.snapshot c.preproc;
  t.last <- Unix.gettimeofday ()

let end_span t =
  let c = installed t in
  charge t ~rounds:0 ~bits:0 ~pre_bits:0;
  t.on_total <- Comm.add_tally t.on_total (Comm.since c.comm t.on0);
  t.pre_total <- Comm.add_tally t.pre_total (Comm.since c.preproc t.pre0)

let get t key =
  match Hashtbl.find_opt t.accs key with
  | Some a -> a
  | None -> { self_s = 0.; rounds = 0; bits = 0; pre_bits = 0 }

let fold t f init = Hashtbl.fold (fun k a acc -> f k a acc) t.accs init

(* Attribution must be complete: per-key rounds (refunds included) and
   bits sum to the meters' deltas. Returns the violated invariants. *)
let check t =
  let r, b, p =
    fold t (fun _ a (r, b, p) -> (r + a.rounds, b + a.bits, p + a.pre_bits)) (0, 0, 0)
  in
  let err what got want =
    if got = want then []
    else [ Printf.sprintf "trace %s sum %d <> metered %d" what got want ]
  in
  err "rounds" r t.on_total.Comm.t_rounds
  @ err "online bits" b t.on_total.Comm.t_bits
  @ err "preprocessing bits" p t.pre_total.Comm.t_bits

(* Labeled share of traced time and of online bits. *)
let coverage t =
  let tot_s, lab_s, tot_b, lab_b =
    fold t
      (fun k a (ts, ls, tb, lb) ->
        let labeled = k <> Layers.unlabeled in
        ( ts +. a.self_s,
          (if labeled then ls +. a.self_s else ls),
          tb + a.bits,
          if labeled then lb + a.bits else lb ))
      (0., 0., 0, 0)
  in
  let share x y = if y > 0. then x /. y else 0. in
  (share lab_s tot_s, share (float_of_int lab_b) (float_of_int tot_b))
