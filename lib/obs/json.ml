type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------ printer ------------------------------ *)

(* Whether [s] from [i] on needs no escaping. *)
let rec plain s i =
  i >= String.length s
  ||
  let c = String.unsafe_get s i in
  c <> '"' && c <> '\\' && c >= ' ' && plain s (i + 1)

let add_string b s =
  Buffer.add_char b '"';
  if plain s 0 then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | '\b' -> Buffer.add_string b "\\b"
        | '\012' -> Buffer.add_string b "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
  Buffer.add_char b '"'

let digit b d = Buffer.add_char b (Char.unsafe_chr (48 + d))

(* The digits of non-negative [n], zero-padded to at least [width];
   at most 19 frames deep. *)
let rec add_digits b n width =
  if n >= 10 || width > 1 then add_digits b (n / 10) (width - 1);
  digit b (n mod 10)

let add_int b n =
  if n >= 0 then add_digits b n 1
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n) 1
  end

let add_float_printf b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
    (* non-finite values have no JSON spelling; degrade to null *)
  else begin
    let s = Printf.sprintf "%.6f" f in
    (* Trim trailing zeros but keep one decimal, so a float stays a
       float on reparse and re-emission is byte-stable. *)
    let stop = ref (String.length s) in
    while !stop > 1 && s.[!stop - 1] = '0' && s.[!stop - 2] <> '.' do
      decr stop
    done;
    Buffer.add_substring b s 0 !stop
  end

(* Byte-for-byte the output of [add_float_printf], without its
   allocations, whenever that output is easy to get right: [f] is
   non-negative and below 1e6, so [f * 1e6] rounds to an integer [r] of
   at most 13 digits, and the exact product (the [fma] residual) is not
   within 0.001 of a rounding tie, so [r] is what "%.6f" prints.  Ties,
   negatives, large and non-finite values take the [Printf] path. *)
let add_float b f =
  if Float.sign_bit f || not (f < 1e6) then add_float_printf b f
  else begin
    let r = Float.round (f *. 1e6) in
    if Float.abs (Float.fma f 1e6 (-.r)) >= 0.499 then add_float_printf b f
    else begin
      let n = int_of_float r in
      add_digits b (n / 1_000_000) 1;
      Buffer.add_char b '.';
      let frac = ref (n mod 1_000_000) and width = ref 6 in
      if !frac = 0 then Buffer.add_char b '0'
      else begin
        while !frac mod 10 = 0 do
          frac := !frac / 10;
          decr width
        done;
        add_digits b !frac !width
      end
    end
  end

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int n -> add_int b n
  | Float f -> add_float b f
  | String s -> add_string b s
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_string b k;
          Buffer.add_char b ':';
          to_buffer b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* ------------------------------ parser ------------------------------ *)

type state = { src : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" st.pos msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some got when got = c -> st.pos <- st.pos + 1
  | Some got -> error st (Printf.sprintf "expected %c, found %c" c got)
  | None -> error st (Printf.sprintf "expected %c, found end of input" c)

let literal st word v =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    v
  end
  else error st ("expected " ^ word)

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' ->
        st.pos <- st.pos + 1;
        (match peek st with
        | None -> error st "unterminated escape"
        | Some c ->
            st.pos <- st.pos + 1;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if st.pos + 4 > String.length st.src then
                  error st "truncated \\u escape";
                let hex = String.sub st.src st.pos 4 in
                let code =
                  match int_of_string_opt ("0x" ^ hex) with
                  | Some code -> code
                  | None -> error st ("bad \\u escape " ^ hex)
                in
                st.pos <- st.pos + 4;
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  (* 2-byte UTF-8; the emitter only produces \u00xx but
                     accept the full BMP on input. *)
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
            | c -> error st (Printf.sprintf "bad escape \\%c" c)));
        go ()
    | Some c ->
        st.pos <- st.pos + 1;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.pos < String.length st.src && is_num_char st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let body = String.sub st.src start (st.pos - start) in
  let is_float =
    String.exists (function '.' | 'e' | 'E' -> true | _ -> false) body
  in
  if is_float then
    match float_of_string_opt body with
    | Some f -> Float f
    | None -> error st ("bad number " ^ body)
  else
    match int_of_string_opt body with
    | Some n -> Int n
    | None -> error st ("bad number " ^ body)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "expected a value, found end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              items (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List.rev (v :: acc)
          | _ -> error st "expected , or ] in array"
        in
        List (items [])
      end
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let field () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let rec fields acc =
          let f = field () in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              fields (f :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              List.rev (f :: acc)
          | _ -> error st "expected , or } in object"
        in
        Obj (fields [])
      end
  | Some c -> error st (Printf.sprintf "unexpected character %c" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then error st "trailing input after value";
  v

(* ----------------------------- accessors ----------------------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_int_opt = function Int n -> Some n | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
