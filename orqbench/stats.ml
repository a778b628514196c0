(* Order statistics and metric-name rules shared by the benchmark. *)

let sorted xs = List.sort compare xs

(* Nearest-rank percentile [p] (0 < p <= 1) of [xs], or [None] unless at
   least [min_tail] samples lie strictly above the chosen rank: a tail
   percentile read from fewer samples is a single outlier, not a tail. With
   [min_tail = 10], p95 needs n >= 200. *)
let percentile ?(min_tail = 0) p xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then None
  else
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
    let rank = min rank n in
    if n - rank < min_tail then None else Some a.(rank - 1)

(* Median: the mean of the two middle samples for even n. *)
let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* A metric name: starts with a letter or digit; at most 64 characters of
   letters, digits, '_', '.', '-'. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

(* A unit: 1..16 characters of letters, digits, '_', '/', '%', '.', '-'. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s
