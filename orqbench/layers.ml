(* Operator label -> engine layer. The labels are the literals passed to
   [Ctx.with_label] across lib/; each maps to the directory (layer) whose
   operator pushes it. An event outside every label is [core.unlabeled]
   (expression evaluation and other work between operators); a label this
   table does not know lands in [core.other], so a new label is visible
   the moment it appears rather than silently dropped. *)

let known =
  [
    ("filter", "core"); ("aggregate", "core"); ("aggnet", "core");
    ("globalagg", "core"); ("distinct", "core"); ("orderby", "core");
    ("join", "core"); ("joinunique", "core"); ("reveal", "core");
    ("linjoin", "core"); ("quadjoin", "core");
    ("radixsort", "sort"); ("quicksort", "sort");
    ("shuffle", "shuffle"); ("applyperm", "shuffle");
    ("permcompose", "shuffle"); ("perminvert", "shuffle");
    ("permconvert", "shuffle");
  ]

let unlabeled = "core.unlabeled"
let other = "core.other"

(* Every key a trace can charge, in report order. *)
let keys =
  List.map (fun (lbl, layer) -> layer ^ "." ^ lbl) known @ [ unlabeled; other ]

let innermost stack =
  match String.rindex_opt stack '/' with
  | None -> stack
  | Some i -> String.sub stack (i + 1) (String.length stack - i - 1)

(* [key_of_stack "join/radixsort/applyperm" = "shuffle.applyperm"]: the
   innermost label owns the event (self attribution). *)
let key_of_stack stack =
  match innermost stack with
  | "" -> unlabeled
  | lbl -> (
      match List.assoc_opt lbl known with
      | Some layer -> layer ^ "." ^ lbl
      | None -> other)
