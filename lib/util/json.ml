type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let fixed d x =
  let k = 10. ** float_of_int d in
  Float (Float.round (x *. k) /. k)

(* Shortest of %.15g..%.17g that reads back to [x]. *)
let float_repr x =
  if not (Float.is_finite x) then "null"
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else go (p + 1)
    in
    go 15

let is_obj = function Obj _ -> true | _ -> false

let rec flat = function
  | List l -> List.for_all (fun v -> flat v && not (is_obj v)) l
  | Obj fs -> List.for_all (fun (_, v) -> flat v) fs
  | _ -> true

let rec write b indent v =
  let add = Buffer.add_string b in
  let key k = add "\""; add (escape k); add "\":" in
  let broken opn cls items item =
    let pad = String.make (indent + 2) ' ' in
    add opn;
    List.iteri
      (fun i x ->
        add (if i = 0 then "\n" else ",\n");
        add pad;
        item x)
      items;
    add "\n";
    add (String.make indent ' ');
    add cls
  in
  let inline opn cls items item =
    add opn;
    List.iteri
      (fun i x ->
        if i > 0 then add ",";
        item x)
      items;
    add cls
  in
  match v with
  | Null -> add "null"
  | Bool x -> add (string_of_bool x)
  | Int i -> add (string_of_int i)
  | Float x -> add (float_repr x)
  | String s -> add "\""; add (escape s); add "\""
  | List l when flat v -> inline "[" "]" l (write b indent)
  | Obj fs when flat v ->
      inline "{" "}" fs (fun (k, x) -> key k; write b indent x)
  | List l -> broken "[" "]" l (write b (indent + 2))
  | Obj fs ->
      broken "{" "}" fs (fun (k, x) ->
          key k;
          add " ";
          write b (indent + 2) x)

let to_string v =
  let b = Buffer.create 1024 in
  write b 0 v;
  Buffer.contents b

let to_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string v);
      output_char oc '\n')
