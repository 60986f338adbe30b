(* The correctness gate every run passes before its times are used.

   A run is compared cell by cell against the reference rendering of
   the same cells (jobs=1, in-domain, memo off, bulk off), and each
   result must also satisfy the theorem-level rules below on its own —
   so a reference that is itself wrong fails every run. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let starts_with s prefix = String.starts_with ~prefix s

(* Why one result line is not a correct result, if it is not. *)
let rule_violation result =
  if starts_with result "ERROR:" then Some "error result"
  else if contains result "QUARANTINED" then Some "quarantined"
  else if starts_with result "thm1 " then
    if
      contains result "guaranteed by theory: true"
      && contains result "fits=true"
      && not (contains result "result=DEFEATED")
    then Some "thm1 cell guaranteed by theory and fitting, but not defeated"
    else None
  else if starts_with result "thm2 " || starts_with result "thm3 " then
    if contains result "preconditions=true" then None
    else Some "preconditions not met"
  else if contains result ": PASS (" then None
  else Some "unrecognised or failing result"

(* Failing cells as (index, reason), in cell order.  A run with a
   missing or extra result fails at every index past the shorter list. *)
let check ~reference ~got =
  let rec go i refs gots acc =
    match (refs, gots) with
    | [], [] -> List.rev acc
    | _ :: refs, [] -> go (i + 1) refs [] ((i, "missing result") :: acc)
    | [], _ :: gots -> go (i + 1) [] gots ((i, "unexpected extra result") :: acc)
    | r :: refs, g :: gots ->
        let fail =
          match rule_violation g with
          | Some reason -> Some reason
          | None -> if String.equal r g then None else Some "differs from reference"
        in
        go (i + 1) refs gots
          (match fail with Some reason -> (i, reason) :: acc | None -> acc)
  in
  go 0 reference got []

(* Result strings are arbitrary text; the reference file is a list of
   OCaml-escaped lines, one per cell. *)
let save path results =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun r ->
          Out_channel.output_string oc (String.escaped r);
          Out_channel.output_char oc '\n')
        results)

let load path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map Scanf.unescaped
