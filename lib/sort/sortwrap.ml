(** The general sorting wrapper (Appendix B.2, Protocol 11): input padding,
    base-sort dispatch, and sorting-permutation extraction.

    Each row is tagged with its (public, then secret-shared) index. For
    quicksort the index joins the comparison key, making rows unique (a
    security requirement of the shuffle-then-reveal approach) and the sort
    stable; radixsort is stable by construction and carries the index as
    data. After sorting, the index column holds [sigma(I) = sigma^{-1}];
    inverting it with Protocol 8 yields the elementwise sorting permutation
    [sigma] that TableSort composes and applies to the remaining columns. *)

open Orq_proto
module Permops = Orq_shuffle.Permops
module Localperm = Orq_shuffle.Localperm

type algo = Quicksort | Radixsort

type dir = Asc | Desc

let default_algo_for_width w = if w <= 32 then Radixsort else Quicksort

(* Shared index column 0..n-1 (the publicShare padding step). *)
let index_column (ctx : Ctx.t) n =
  Share.public_vec ctx Share.Bool (Localperm.identity n)

(* Rematerialize a monolithic result with the tracking of the chunked
   input it replaces. *)
let repack_like (like : Share.chunked) (s : Share.shared) =
  if Share.chunked_tracked like then Share.park s else Share.wrap s

(* Base-sort dispatch over chunked columns: radixsort streams them
   chunk-at-a-time; quicksort runs on unparked columns, repacks its output
   and appends its sorted index column to the carry. *)
let run_base (ctx : Ctx.t) algo dir ~w (key : Share.chunked)
    (carry : Share.chunked list) : Share.chunked * Share.chunked list =
  match algo with
  | Radixsort ->
      Ctx.with_label ctx "radixsort" @@ fun () ->
      let rdir = match dir with Asc -> Radixsort.Asc | Desc -> Radixsort.Desc in
      Radixsort.sort_c ctx ~bits:w ~dir:rdir key carry
  | Quicksort -> (
      Ctx.with_label ctx "quicksort" @@ fun () ->
      let n = Share.chunked_length key in
      (* the index is part of the composite key: uniqueness + stability *)
      let idx = index_column ctx n in
      let qdir = match dir with Asc -> Quicksort.Asc | Desc -> Quicksort.Desc in
      let keys =
        [
          { Quicksort.col = Share.unpark key; width = w; dir = qdir };
          { Quicksort.col = idx; width = ctx.perm_bits; dir = Quicksort.Asc };
        ]
      in
      match Quicksort.sort ctx ~keys (List.map Share.unpark carry) with
      | [ key'; idx' ], carry' ->
          (* the index column is consumed at once, never stored: wrap it *)
          ( repack_like key key',
            List.map (repack_like key) carry' @ [ Share.wrap idx' ] )
      | _ -> assert false)

(* For radixsort the index must be appended to the carried columns so the
   permutation can be extracted; quicksort already returns it. *)
let with_index ctx algo n carry =
  match algo with
  | Radixsort -> carry @ [ index_column ctx n ]
  | Quicksort -> carry

(** [sort_with_perm ctx ?algo ~dir ~w key carry] sorts rows by the single
    key column (plus index tiebreak), returning the sorted key, the sorted
    carry columns, and the elementwise sorting permutation [sigma]. *)
let sort_with_perm (ctx : Ctx.t) ?algo ~(dir : dir) ~w (key : Share.shared)
    (carry : Share.shared list) :
    Share.shared * Share.shared list * Share.shared =
  let algo = Option.value algo ~default:(default_algo_for_width w) in
  let n = Share.length key in
  let ncarry = List.length carry in
  let key', cols' =
    run_base ctx algo dir ~w (Share.wrap key)
      (List.map Share.wrap (with_index ctx algo n carry))
  in
  let cols' = List.map Share.unpark cols' in
  let carry' = Quicksort.take ncarry cols' in
  let pi =
    match Quicksort.drop ncarry cols' with
    | [ pi ] -> pi
    | _ -> assert false
  in
  let sigma = Permops.invert ctx pi in
  (Share.unpark key', carry', sigma)

(** [sort_c ctx ?algo ~dir ~w key carry] as above but without extracting
    the sorting permutation (single-key sorts that carry all their columns
    through the base sort do not need it). *)
let sort_c (ctx : Ctx.t) ?algo ~(dir : dir) ~w (key : Share.chunked)
    (carry : Share.chunked list) : Share.chunked * Share.chunked list =
  let algo = Option.value algo ~default:(default_algo_for_width w) in
  let key', cols' = run_base ctx algo dir ~w key carry in
  (key', Quicksort.take (List.length carry) cols')

let sort ctx ?algo ~dir ~w key carry =
  let key', carry' =
    sort_c ctx ?algo ~dir ~w (Share.wrap key) (List.map Share.wrap carry)
  in
  (Share.unpark key', List.map Share.unpark carry')
