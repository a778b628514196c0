(** High-level oblivious permutation protocols (Appendix A.4): shuffle
    (Protocol 4), elementwise-permutation application (Protocol 5),
    composition (Protocol 6), encoding conversion (Protocol 7) and inversion
    (Protocol 8).

    Elementwise permutations are ordinary secret-shared vectors of
    destination indices; the common trick is that once such a vector has
    been routed through a random *sharded* permutation, it can be safely
    opened — the opened vector is the destination vector of [rho o pi^{-1}],
    uniform for uniform [pi]. *)

open Orq_proto

let perm_width (ctx : Ctx.t) = ctx.perm_bits

(** Protocol 4, the oblivious shuffle, over a table: generate one random
    sharded permutation and apply it to every column, streaming
    chunk-at-a-time. *)
let shuffle_table_c ?width (ctx : Ctx.t) (cols : Share.chunked list) :
    Share.chunked list =
  match cols with
  | [] -> []
  | c :: _ ->
      Ctx.with_label ctx "shuffle" @@ fun () ->
      let p = Permmgr.gen ctx (Share.chunked_length c) in
      Shardedperm.apply_table_c ?width ctx cols p

let shuffle_table ?width (ctx : Ctx.t) (cols : Share.shared list) =
  List.map Share.unpark (shuffle_table_c ?width ctx (List.map Share.wrap cols))

let shuffle ?width ctx x = List.hd (shuffle_table ?width ctx [ x ])

(** Protocol 5 over a table: several columns move under the same secret
    elementwise permutation [rho], paying the shuffle of [rho] and its
    opening once. The data columns stream chunk-at-a-time (sharded
    application and final scatter); [rho] itself stays monolithic — it is
    a single index column. The two sharded applications act on independent
    inputs under independent permutations, so their rounds are fused
    (their traffic is untouched). *)
let apply_elementwise_table_c ?width (ctx : Ctx.t) (cols : Share.chunked list)
    (rho : Share.shared) : Share.chunked list =
  match cols with
  | [] -> []
  | c0 :: _ ->
      Ctx.with_label ctx "applyperm" @@ fun () ->
      let n = Share.chunked_length c0 in
      if Share.length rho <> n then invalid_arg "apply_elementwise: length";
      let p1, p2 = Permmgr.gen_pair ctx n in
      let pair =
        Mpc.fuse_rounds ctx
          [|
            (fun () -> `C (Shardedperm.apply_table_c ?width ctx cols p1));
            (fun () ->
              `S (Shardedperm.apply ~width:(perm_width ctx) ctx rho p2));
          |]
      in
      let cs = match pair.(0) with `C l -> l | `S _ -> assert false in
      let rs = match pair.(1) with `S s -> s | `C _ -> assert false in
      let c = Mpc.open_ ~width:(perm_width ctx) ctx rs in
      List.map
        (fun x ->
          let out = Share.scatter_c x c in
          Share.dispose_c x;
          out)
        cs

let apply_elementwise_table ?width (ctx : Ctx.t) (cols : Share.shared list)
    (rho : Share.shared) =
  List.map Share.unpark
    (apply_elementwise_table_c ?width ctx (List.map Share.wrap cols) rho)

(** Protocol 5 on one column: the one-column table. *)
let apply_elementwise ?width (ctx : Ctx.t) (x : Share.shared)
    (rho : Share.shared) : Share.shared =
  List.hd (apply_elementwise_table ?width ctx [ x ] rho)

(** Protocol 5 for a packed flag column: the data being permuted is a
    single bit per row, so the first sharded application moves packed
    words ({!Shardedperm.apply_flags}) and the final local rearrangement
    is a packed scatter. Wire cost identical to
    [apply_elementwise ~width:1] on the unpacked 0/1 column — which is
    exactly what it falls back to under [ORQ_NO_BITPACK]. *)
let apply_elementwise_flags (ctx : Ctx.t) (x : Share.flags)
    (rho : Share.shared) : Share.flags =
  let n = Share.flags_length x in
  if Share.length rho <> n then invalid_arg "apply_elementwise: length";
  if not (Mpc.bitpack_enabled ()) then
    Share.pack_flags (apply_elementwise ~width:1 ctx (Share.unpack_flags x) rho)
  else begin
    Ctx.with_label ctx "applyperm" @@ fun () ->
    let p1, p2 = Permmgr.gen_pair ctx n in
    let pair =
      Mpc.fuse_rounds ctx
        [|
          (fun () -> `F (Shardedperm.apply_flags ctx x p1));
          (fun () ->
            `S (Shardedperm.apply ~width:(perm_width ctx) ctx rho p2));
        |]
    in
    let xf = match pair.(0) with `F f -> f | `S _ -> assert false in
    let rs = match pair.(1) with `S s -> s | `F _ -> assert false in
    let c = Mpc.open_ ~width:(perm_width ctx) ctx rs in
    Share.flags_scatter xf c
  end

(** Protocol 6: compose two secret elementwise permutations, returning
    [rho o sigma] (apply [sigma] first). *)
let compose (ctx : Ctx.t) (sigma : Share.shared) (rho : Share.shared) :
    Share.shared =
  let n = Share.length sigma in
  if Share.length rho <> n then invalid_arg "compose: length";
  Ctx.with_label ctx "permcompose" @@ fun () ->
  let p = Permmgr.gen ctx n in
  let ps = Shardedperm.apply ~width:(perm_width ctx) ctx sigma p in
  let c = Mpc.open_ ~width:(perm_width ctx) ctx ps in
  (* localApplyPerm(rho, c^{-1}) is a gather by c *)
  let v = Share.gather rho c in
  Shardedperm.apply_inverse ~width:(perm_width ctx) ctx v p

(** Protocol 8: invert a secret elementwise permutation by obliviously
    applying it to the shared identity vector (Fact 1). *)
let invert ?enc (ctx : Ctx.t) (pi : Share.shared) : Share.shared =
  let n = Share.length pi in
  let enc = Option.value enc ~default:pi.Share.enc in
  Ctx.with_label ctx "perminvert" @@ fun () ->
  let identity = Share.public_vec ctx enc (Localperm.identity n) in
  apply_elementwise ~width:(perm_width ctx) ctx identity pi

(** Protocol 7: convert an elementwise permutation between arithmetic and
    boolean sharings. Honest-majority: shuffle, open, reshare under the
    target encoding, unshuffle — cheaper than per-element conversion because
    the multiset of values of a permutation is public. Dishonest-majority:
    per-element share conversion (the paper's choice for 2PC). *)
let convert (ctx : Ctx.t) (x : Share.shared) (target : Share.enc) :
    Share.shared =
  if x.Share.enc = target then x
  else
    Ctx.with_label ctx "permconvert" @@ fun () ->
    match ctx.kind with
    | Ctx.Sh_dm -> (
        match target with
        | Share.Bool -> Orq_circuits.Convert.a2b ~w:(perm_width ctx) ctx x
        | Share.Arith -> Orq_circuits.Convert.b2a ~w:(perm_width ctx) ctx x)
    | Ctx.Sh_hm | Ctx.Mal_hm ->
        let p = Permmgr.gen ctx (Share.length x) in
        let opened =
          Mpc.open_ ~width:(perm_width ctx) ctx
            (Shardedperm.apply ~width:(perm_width ctx) ctx x p)
        in
        let re = Share.public_vec ctx target opened in
        Shardedperm.apply_inverse ~width:(perm_width ctx) ctx re p
