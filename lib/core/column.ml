(** Table columns: a secret-shared vector plus its logical bit width,
    signedness and (optionally) a declared public value domain.

    Columns are stored boolean-encoded by default — filters, sorts, joins
    and distinct are all comparison-shaped — and converted to arithmetic
    sharing on demand (sums, products, averages), mirroring §2.3's dual
    representation with on-the-fly conversion. A [signed] column holds
    two's-complement values at its width (e.g. a profit computed by
    subtraction); conversions and comparisons respect the flag.

    A [domain] [(lo, hi)] is schema metadata the data owner declares and
    checks in plaintext at share time ({!check_domain}): every valid
    row's value lies in the inclusive range. Operators that move values
    without computing them (filter, project, rename, sort, shuffle, join
    carry) keep it; derived columns do not have one. The GROUP BY
    operator uses it to aggregate into one row per domain value without
    sorting (DESIGN.md, "GROUP BY over declared domains").

    A column's payload lives in one of two representations: [Live] — the
    classic monolithic {!Share.shared}; [Parked] — chunks owned by the
    budget-managed {!Orq_util.Chunkvec} store, evictable to disk.
    {!data} materializes a parked column (and caches the result);
    chunk-aware operators use {!chunked}, under which a live column flows
    through as a single zero-copy chunk. *)

open Orq_proto

type repr = Live of Share.shared | Parked of Share.chunked

type t = {
  mutable repr : repr;
  width : int;
  signed : bool;
  domain : (int * int) option;
}

let length c =
  match c.repr with
  | Live s -> Share.length s
  | Parked ck -> Share.chunked_length ck

let enc c =
  match c.repr with
  | Live s -> s.Share.enc
  | Parked ck -> ck.Share.cenc

(** Share-time domain check (data-owner side, plaintext): every row whose
    validity bit is set holds a value in [lo, hi]. *)
let check_domain ~name ?valid (lo, hi) (values : int array) =
  if lo > hi then
    invalid_arg
      (Printf.sprintf "column %s: empty declared domain [%d, %d]" name lo hi);
  Array.iteri
    (fun i v ->
      let live = match valid with Some b -> b.(i) = 1 | None -> true in
      if live && (v < lo || v > hi) then
        invalid_arg
          (Printf.sprintf
             "column %s: row %d holds %d, outside its declared domain [%d, %d]"
             name i v lo hi))
    values

let of_plaintext (ctx : Ctx.t) ~width ?domain (values : int array) : t =
  { repr = Live (Share.share ctx Bool values); width; signed = false; domain }

let of_shared ?(signed = false) ?domain ~width data : t =
  { repr = Live data; width; signed; domain }

let of_chunked ?(signed = false) ?domain ~width ck : t =
  { repr = Parked ck; width; signed; domain }

(** The monolithic sharing: materializes a parked column (caching the
    result, so repeated access pays the faults once). *)
let data c =
  match c.repr with
  | Live s -> s
  | Parked ck ->
      let s = Share.unpark ck in
      c.repr <- Live s;
      s

(** Functional payload replacement, preserving width/signedness/domain. *)
let with_data c s = { c with repr = Live s }

let with_chunked c ck = { c with repr = Parked ck }

(** Chunked view: a parked column's chunks, or a live column wrapped as a
    single untracked chunk (zero copy). *)
let chunked c =
  match c.repr with Parked ck -> ck | Live s -> Share.wrap s

(** Move a live column into budget-managed (evictable) chunks in place. *)
let park c =
  match c.repr with
  | Parked _ -> ()
  | Live s -> c.repr <- Parked (Share.park s)

(** Boolean view of a column (identity for boolean-encoded columns). *)
let as_bool (ctx : Ctx.t) (c : t) : Share.shared =
  match enc c with
  | Bool -> data c
  | Arith -> Orq_circuits.Convert.a2b ~w:c.width ctx (data c)

(** Arithmetic view of a column, honouring its signedness. *)
let as_arith (ctx : Ctx.t) (c : t) : Share.shared =
  match enc c with
  | Arith -> data c
  | Bool -> Orq_circuits.Convert.b2a ~w:c.width ~signed:c.signed ctx (data c)

let reconstruct c =
  match c.repr with
  | Live s -> Share.reconstruct s
  | Parked ck -> Share.reconstruct_c ck

let sub_range c pos len =
  match c.repr with
  | Live s -> { c with repr = Live (Share.sub_range s pos len) }
  | Parked ck -> { c with repr = Parked (Share.sub_range_c ck pos len) }

(* Appending parked columns reuses aligned chunks (refcounted) instead of
   copying, keeping incremental table building linear. *)
let append a b =
  match (a.repr, b.repr) with
  | Live sa, Live sb -> { a with repr = Live (Share.append sa sb) }
  | _ -> { a with repr = Parked (Share.append_c (chunked a) (chunked b)) }
