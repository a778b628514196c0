(* Static-analysis + oblivious-transcript certifier driver.

     orq_lint lint   [--json] [paths...]   leakage lint (default path: lib)
     orq_lint lint   --expect-violations p self-test: fixture must trip rules
     orq_lint concur [--json] [paths...]   concurrency-discipline lint
     orq_lint concur --expect-violations p self-test: fixture must trip rules
     orq_lint certify [options]            predicted-vs-measured transcripts

   Exit codes (both lint passes and certify):
     0  clean — no violations / all pairs certified
     1  violations found (or, with --expect-violations, expected
        violations missing)
     2  usage error or unreadable input *)

module Lint = Orq_analysis.Lint
module Declass = Orq_analysis.Declass
module Concur = Orq_analysis.Concur
module Lockmap = Orq_analysis.Lockmap
module Certify = Orq_analysis.Certify

let say fmt = Format.printf (fmt ^^ "@.")

module Json = Orq_util.Json

let json_finding ~pass ~file ~line ~rule ~site ~detail =
  Json.(
    Obj
      [ ("pass", String pass); ("file", String file); ("line", Int line);
        ("rule", String rule); ("site", String site); ("detail", String detail) ])

let emit_json ~pass items =
  print_endline
    Json.(
      to_string
        (Obj
           [ ("pass", String pass); ("violations", List items);
             ("count", Int (List.length items)) ]))

(* ---------------- leakage lint ---------------- *)

let run_lint ~expect_violations ~json paths =
  let paths = if paths = [] then [ "lib" ] else paths in
  let files, findings =
    try
      let files = List.concat_map Lint.ml_files paths in
      (files, List.concat_map Lint.lint_file files)
    with Sys_error e ->
      say "orq_lint: %s" e;
      exit 2
  in
  let violations = Lint.violations findings in
  let stale = Lint.stale_entries ~files findings in
  let clean = violations = [] && stale = [] in
  let leaky = Lint.leaky_findings findings in
  let allowed =
    List.filter
      (fun f -> match Lint.verdict f with Lint.Allowed _ -> true | _ -> false)
      findings
  in
  if expect_violations then begin
    (* self-test over the seeded fixture: both core rules must fire *)
    let has rule =
      List.exists (fun (f : Lint.finding) -> f.Lint.f_rule = rule) violations
    in
    List.iter (fun f -> say "seeded: %a" Lint.pp_finding f) violations;
    if has Declass.Declass && has Declass.Branch then begin
      say "lint self-test: fixture trips declass + branch rules (%d findings)"
        (List.length violations);
      exit 0
    end
    else begin
      say
        "lint self-test FAILED: expected both an unregistered open_ and a \
         branch-on-opened violation in %s"
        (String.concat " " paths);
      exit 1
    end
  end
  else if json then begin
    emit_json ~pass:"leakage"
      (List.map
         (fun (f : Lint.finding) ->
           json_finding ~pass:"leakage" ~file:f.Lint.f_file ~line:f.Lint.f_line
             ~rule:(Declass.rule_label f.Lint.f_rule)
             ~site:f.Lint.f_site ~detail:("uses " ^ f.Lint.f_callee))
         violations
      @ List.map
          (fun (file, (e : Declass.entry)) ->
            json_finding ~pass:"leakage" ~file ~line:0 ~rule:"stale"
              ~site:e.Declass.d_site
              ~detail:
                (Printf.sprintf "%s entry for %s matches no site"
                   (Declass.rule_label e.Declass.d_rule) e.Declass.d_callee))
          stale);
    exit (if clean then 0 else 1)
  end
  else begin
    List.iter
      (fun (f : Lint.finding) ->
        match Lint.verdict f with
        | Lint.Leaky e ->
            say "leaky: %a  (%s)" Lint.pp_finding f e.Declass.d_why
        | _ -> ())
      leaky;
    List.iter (fun f -> say "VIOLATION: %a" Lint.pp_finding f) violations;
    List.iter
      (fun (file, (e : Declass.entry)) ->
        say "STALE: %s: [%s] allowlist entry %s uses %s matches no site" file
          (Declass.rule_label e.Declass.d_rule)
          e.Declass.d_site e.Declass.d_callee)
      stale;
    say
      "lint: %d findings — %d audited declassifications, %d leaky-by-design \
       baseline sites, %d violations, %d stale allowlist entries"
      (List.length findings) (List.length allowed) (List.length leaky)
      (List.length violations) (List.length stale);
    exit (if clean then 0 else 1)
  end

(* ---------------- concurrency lint ---------------- *)

let run_concur ~expect_violations ~json paths =
  let paths = if paths = [] then [ "lib" ] else paths in
  let violations =
    try Concur.lint_paths paths
    with Sys_error e ->
      say "orq_lint: %s" e;
      exit 2
  in
  if expect_violations then begin
    (* self-test over the seeded fixture: every rule must fire *)
    let has rule =
      List.exists
        (fun (f : Concur.finding) -> f.Concur.c_rule = rule)
        violations
    in
    List.iter (fun f -> say "seeded: %a" Concur.pp_finding f) violations;
    let missing =
      List.filter
        (fun r -> not (has r))
        [
          Lockmap.Registry;
          Lockmap.Order;
          Lockmap.Blocking;
          Lockmap.Shared;
          Lockmap.Finaliser;
        ]
    in
    if missing = [] then begin
      say
        "concur self-test: fixture trips all five rules (%d findings)"
        (List.length violations);
      exit 0
    end
    else begin
      say "concur self-test FAILED: rule(s) %s not tripped in %s"
        (String.concat ", " (List.map Lockmap.rule_label missing))
        (String.concat " " paths);
      exit 1
    end
  end
  else if json then begin
    emit_json ~pass:"concur"
      (List.map
         (fun (f : Concur.finding) ->
           json_finding ~pass:"concur" ~file:f.Concur.c_file
             ~line:f.Concur.c_line
             ~rule:(Lockmap.rule_label f.Concur.c_rule)
             ~site:f.Concur.c_site ~detail:f.Concur.c_detail)
         violations);
    exit (if violations = [] then 0 else 1)
  end
  else begin
    List.iter (fun f -> say "VIOLATION: %a" Concur.pp_finding f) violations;
    say "concur: %d registered locks, %d violations"
      (List.length Lockmap.locks) (List.length violations);
    exit (if violations = [] then 0 else 1)
  end

(* ---------------- certify ---------------- *)

(* Quick mode takes a representative subset of the query-suite bench's
   quick queries, one protocol per security model class. *)
let quick_names = [ "Q1"; "Q4"; "Q6"; "Q13"; "Aspirin"; "Comorbidity" ]

let run_certify ~quick ~sf ~other_n ~out =
  let names = if quick then Some quick_names else None in
  let kinds =
    if quick then [ Orq_proto.Ctx.Sh_dm; Orq_proto.Ctx.Mal_hm ]
    else Orq_proto.Ctx.all_kinds
  in
  let certs = Certify.run_suite ~sf ~other_n ~kinds ?names () in
  List.iter (fun c -> say "%a" Certify.pp_cert c) certs;
  let ok = Certify.all_ok certs in
  Json.to_file out (Certify.report_json ~sf ~other_n certs);
  say "wrote %s" out;
  let exact =
    List.length (List.filter (fun c -> c.Certify.c_mode = Certify.Exact) certs)
  in
  say
    "certify: %d/%d (query, protocol) pairs certified (%d exact, %d \
     modulo-quicksort)%s"
    (List.length (List.filter (fun c -> c.Certify.c_ok) certs))
    (List.length certs) exact
    (List.length certs - exact)
    (if ok then "" else " — TRANSCRIPT DEPENDS ON SECRET DATA");
  exit (if ok then 0 else 1)

(* ---------------- arg parsing ---------------- *)

let usage () =
  say
    "usage: orq_lint [lint [--json] [--expect-violations] [paths...]]\n\
    \       orq_lint concur [--json] [--expect-violations] [paths...]\n\
    \       orq_lint certify [--quick] [--sf F] [--n N] [--out FILE]\n\
     exit codes: 0 clean, 1 violations, 2 usage/input error";
  exit 2

let lint_flags rest =
  let expect = List.mem "--expect-violations" rest in
  let json = List.mem "--json" rest in
  let paths =
    List.filter (fun a -> a <> "--expect-violations" && a <> "--json") rest
  in
  if List.exists (fun a -> String.length a > 0 && a.[0] = '-') paths then
    usage ();
  (expect, json, paths)

let () =
  match Array.to_list Sys.argv with
  | _ :: "certify" :: rest ->
      let quick = ref false in
      let sf = ref Orq_workloads.Workload.suite_sf
      and n = ref Orq_workloads.Workload.suite_n
      and out = ref "CERTIFICATE.json" in
      let rec parse = function
        | [] -> ()
        | "--quick" :: r -> quick := true; parse r
        | "--sf" :: v :: r -> sf := float_of_string v; parse r
        | "--n" :: v :: r -> n := int_of_string v; parse r
        | "--out" :: v :: r -> out := v; parse r
        | _ -> usage ()
      in
      parse rest;
      run_certify ~quick:!quick ~sf:!sf ~other_n:!n ~out:!out
  | _ :: "concur" :: rest -> (
      match rest with
      | "--help" :: _ | "-h" :: _ -> usage ()
      | _ ->
          let expect, json, paths = lint_flags rest in
          run_concur ~expect_violations:expect ~json paths)
  | argv -> (
      let rest =
        match argv with _ :: "lint" :: r -> r | _ :: r -> r | [] -> []
      in
      match rest with
      | "--help" :: _ | "-h" :: _ -> usage ()
      | _ ->
          let expect, json, paths = lint_flags rest in
          run_lint ~expect_violations:expect ~json paths)
