type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Writer. The bytes are a contract that pinned report hashes depend on:
   exactly what the Printf conversions named below would produce
   (test_obs checks that against a Printf reference), without their
   format interpretation or a temporary string per value. *)

(* The C primitive behind Printf's %g/%f conversions. *)
external format_float : string -> float -> string = "caml_format_float"

(* Decimal digits of [n <= 0], most significant first. Working on the
   negated value keeps [min_int] in range. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

(* [string_of_int n] without the intermediate string. *)
let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (-n)

let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then begin
    (* Exact integers render as "%.1f" would, "x.0", so diffs stay
       readable; the sign bit keeps -0.0 as "-0.0". *)
    let i = int_of_float f in
    if i = 0 && Float.sign_bit f then Buffer.add_char buf '-';
    add_int buf i;
    Buffer.add_string buf ".0"
  end
  else Buffer.add_string buf (format_float "%.17g" f)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20
let hex_digit n = "0123456789abcdef".[n]

let add_escaped_char buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c ->
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf (hex_digit (Char.code c lsr 4));
      Buffer.add_char buf (hex_digit (Char.code c land 0xF))

(* Runs of bytes that need no escape go in with one [add_substring]; a
   string without any escape is a single append. *)
let add_escaped buf s =
  let len = String.length s in
  Buffer.add_char buf '"';
  let run_start = ref 0 in
  for i = 0 to len - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      Buffer.add_substring buf s !run_start (i - !run_start);
      add_escaped_char buf c;
      run_start := i + 1
    end
  done;
  Buffer.add_substring buf s !run_start (len - !run_start);
  Buffer.add_char buf '"'

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | String s -> add_escaped buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (item :: items) ->
      Buffer.add_char buf '[';
      to_buffer buf item;
      compact_items buf items;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (field :: fields) ->
      Buffer.add_char buf '{';
      compact_field buf field;
      compact_fields buf fields;
      Buffer.add_char buf '}'

and compact_items buf = function
  | [] -> ()
  | item :: items ->
      Buffer.add_char buf ',';
      to_buffer buf item;
      compact_items buf items

and compact_field buf (k, v) =
  add_escaped buf k;
  Buffer.add_char buf ':';
  to_buffer buf v

and compact_fields buf = function
  | [] -> ()
  | field :: fields ->
      Buffer.add_char buf ',';
      compact_field buf field;
      compact_fields buf fields

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

(* Indentation comes from slices of one shared run of spaces. *)
let spaces = String.make 128 ' '

let rec add_pad buf n =
  if n <= String.length spaces then Buffer.add_substring buf spaces 0 n
  else begin
    Buffer.add_string buf spaces;
    add_pad buf (n - String.length spaces)
  end

let rec pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | String _ | List [] | Obj []) as leaf ->
      to_buffer buf leaf
  | List (item :: items) ->
      Buffer.add_string buf "[\n";
      add_pad buf (indent + 2);
      pretty buf (indent + 2) item;
      pretty_items buf (indent + 2) items;
      Buffer.add_char buf '\n';
      add_pad buf indent;
      Buffer.add_char buf ']'
  | Obj (field :: fields) ->
      Buffer.add_string buf "{\n";
      add_pad buf (indent + 2);
      pretty_field buf (indent + 2) field;
      pretty_fields buf (indent + 2) fields;
      Buffer.add_char buf '\n';
      add_pad buf indent;
      Buffer.add_char buf '}'

and pretty_items buf indent = function
  | [] -> ()
  | item :: items ->
      Buffer.add_string buf ",\n";
      add_pad buf indent;
      pretty buf indent item;
      pretty_items buf indent items

and pretty_field buf indent (k, v) =
  add_escaped buf k;
  Buffer.add_string buf ": ";
  pretty buf indent v

and pretty_fields buf indent = function
  | [] -> ()
  | field :: fields ->
      Buffer.add_string buf ",\n";
      add_pad buf indent;
      pretty_field buf indent field;
      pretty_fields buf indent fields

let to_string_pretty j =
  let buf = Buffer.create 1024 in
  pretty buf 0 j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reader: recursive descent over RFC 8259. It exists so tooling (the
   store, ci bench smoke) can read emitted documents back without a JSON
   dependency. Numbers without '.', 'e' or 'E' parse as [Int] (as
   [Float] when they overflow an [int]), everything else as [Float]. *)

exception Parse_error of string

let fail_at pos msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg pos))

type reader = { s : string; mutable pos : int }

let looking_at r c = r.pos < String.length r.s && String.unsafe_get r.s r.pos = c

let skip_ws r =
  let s = r.s in
  let len = String.length s in
  while
    r.pos < len
    && match String.unsafe_get s r.pos with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    r.pos <- r.pos + 1
  done

let expect r c =
  if looking_at r c then r.pos <- r.pos + 1
  else fail_at r.pos (Printf.sprintf "expected '%c'" c)

let literal r lit v =
  let n = String.length lit in
  let ok = ref (r.pos + n <= String.length r.s) in
  let i = ref 0 in
  while !ok && !i < n do
    ok := String.unsafe_get r.s (r.pos + !i) = String.unsafe_get lit !i;
    incr i
  done;
  if !ok then begin
    r.pos <- r.pos + n;
    v
  end
  else fail_at r.pos ("expected " ^ lit)

let is_digit c = c >= '0' && c <= '9'

let rec skip_digits s p =
  if p < String.length s && is_digit (String.unsafe_get s p) then
    skip_digits s (p + 1)
  else p

let need_digit s p what =
  if not (p < String.length s && is_digit s.[p]) then
    fail_at p ("digit expected " ^ what)

(* RFC 8259's number grammar, in one scan: an optional '-', then '0' or
   a non-zero digit and more digits, an optional fraction ('.' and at
   least one digit) and an optional exponent ('e' or 'E', an optional
   sign, at least one digit). The integer value is accumulated on the
   negative side (so [min_int] fits) while scanning; a fraction, an
   exponent or an overflow makes the token a [Float], converted from its
   text by [float_of_string]. *)
let parse_number r =
  let s = r.s in
  let len = String.length s in
  let start = r.pos in
  let neg = s.[start] = '-' in
  let p = ref (if neg then start + 1 else start) in
  need_digit s !p "in number";
  let acc = ref 0 and overflow = ref false in
  if s.[!p] = '0' then begin
    incr p;
    if !p < len && is_digit s.[!p] then fail_at !p "leading zero in number"
  end
  else
    while !p < len && is_digit s.[!p] do
      let d = Char.code s.[!p] - 48 in
      if !acc < min_int / 10 || (!acc = min_int / 10 && d > -(min_int mod 10))
      then overflow := true
      else acc := (!acc * 10) - d;
      incr p
    done;
  let is_float = ref false in
  if !p < len && s.[!p] = '.' then begin
    is_float := true;
    need_digit s (!p + 1) "after '.'";
    p := skip_digits s (!p + 1)
  end;
  if !p < len && (s.[!p] = 'e' || s.[!p] = 'E') then begin
    is_float := true;
    incr p;
    if !p < len && (s.[!p] = '+' || s.[!p] = '-') then incr p;
    need_digit s !p "in exponent";
    p := skip_digits s !p
  end;
  r.pos <- !p;
  if !is_float || !overflow || ((not neg) && !acc = min_int) then
    Float (float_of_string (String.sub s start (!p - start)))
  else Int (if neg then !acc else - !acc)

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> -1

(* The four hex digits of a \u escape whose 'u' is at [at]. *)
let hex4 s at =
  if at + 4 >= String.length s then fail_at at "truncated \\u escape";
  let code = ref 0 in
  for i = at + 1 to at + 4 do
    let h = hex_value s.[i] in
    if h < 0 then fail_at i "bad \\u escape";
    code := (!code lsl 4) lor h
  done;
  !code

let add_utf8 buf code =
  let byte b = Buffer.add_char buf (Char.unsafe_chr b) in
  if code < 0x80 then byte code
  else if code < 0x800 then begin
    byte (0xC0 lor (code lsr 6));
    byte (0x80 lor (code land 0x3F))
  end
  else if code < 0x10000 then begin
    byte (0xE0 lor (code lsr 12));
    byte (0x80 lor ((code lsr 6) land 0x3F));
    byte (0x80 lor (code land 0x3F))
  end
  else begin
    byte (0xF0 lor (code lsr 18));
    byte (0x80 lor ((code lsr 12) land 0x3F));
    byte (0x80 lor ((code lsr 6) land 0x3F));
    byte (0x80 lor (code land 0x3F))
  end

(* A \u escape at [r.pos] (the backslash): one BMP code point, or a
   high + low surrogate pair encoding one supplementary code point. *)
let parse_unicode_escape r buf =
  let at = r.pos in
  let s = r.s in
  let code = hex4 s (at + 1) in
  if code >= 0xDC00 && code <= 0xDFFF then fail_at at "lone low surrogate"
  else if code >= 0xD800 && code <= 0xDBFF then begin
    let lo_at = at + 6 in
    if not (lo_at + 1 < String.length s && s.[lo_at] = '\\' && s.[lo_at + 1] = 'u')
    then fail_at at "lone high surrogate";
    let lo = hex4 s (lo_at + 1) in
    if lo < 0xDC00 || lo > 0xDFFF then fail_at lo_at "lone high surrogate";
    add_utf8 buf (0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00));
    r.pos <- lo_at + 6
  end
  else begin
    add_utf8 buf code;
    r.pos <- at + 6
  end

(* The first byte at or after [p] that ends a run of plain string bytes
   (a quote, a backslash or a control byte), or the end of [s]. *)
let rec plain_run_end s p =
  if p < String.length s && not (needs_escape (String.unsafe_get s p)) then
    plain_run_end s (p + 1)
  else p

(* The rest of a string from [r.pos]; [buf] holds what came before. *)
let rec parse_escaped r buf =
  let s = r.s in
  let run_end = plain_run_end s r.pos in
  Buffer.add_substring buf s r.pos (run_end - r.pos);
  r.pos <- run_end;
  if r.pos >= String.length s then fail_at r.pos "unterminated string";
  match s.[r.pos] with
  | '"' ->
      r.pos <- r.pos + 1;
      Buffer.contents buf
  | '\\' ->
      if r.pos + 1 >= String.length s then fail_at r.pos "truncated escape";
      (match s.[r.pos + 1] with
      | 'u' -> parse_unicode_escape r buf
      | c ->
          Buffer.add_char buf
            (match c with
            | '"' -> '"'
            | '\\' -> '\\'
            | '/' -> '/'
            | 'n' -> '\n'
            | 't' -> '\t'
            | 'r' -> '\r'
            | 'b' -> '\b'
            | 'f' -> '\012'
            | _ -> fail_at (r.pos + 1) "unknown escape");
          r.pos <- r.pos + 2);
      parse_escaped r buf
  | _ -> fail_at r.pos "unescaped control character in string"

(* A string with no escape is one [String.sub] of the input. *)
let parse_string r =
  expect r '"';
  let s = r.s in
  let start = r.pos in
  let run_end = plain_run_end s start in
  if run_end < String.length s && s.[run_end] = '"' then begin
    r.pos <- run_end + 1;
    String.sub s start (run_end - start)
  end
  else parse_escaped r (Buffer.create (2 * (run_end - start) + 16))

let rec parse_value r =
  skip_ws r;
  if r.pos >= String.length r.s then fail_at r.pos "unexpected end of input";
  match r.s.[r.pos] with
  | '{' ->
      r.pos <- r.pos + 1;
      skip_ws r;
      if looking_at r '}' then begin
        r.pos <- r.pos + 1;
        Obj []
      end
      else Obj (parse_fields r [])
  | '[' ->
      r.pos <- r.pos + 1;
      skip_ws r;
      if looking_at r ']' then begin
        r.pos <- r.pos + 1;
        List []
      end
      else List (parse_items r [])
  | '"' -> String (parse_string r)
  | 't' -> literal r "true" (Bool true)
  | 'f' -> literal r "false" (Bool false)
  | 'n' -> literal r "null" Null
  | '-' | '0' .. '9' -> parse_number r
  | _ -> fail_at r.pos "unexpected character"

and parse_fields r acc =
  skip_ws r;
  let k = parse_string r in
  skip_ws r;
  expect r ':';
  let v = parse_value r in
  skip_ws r;
  if looking_at r ',' then begin
    r.pos <- r.pos + 1;
    parse_fields r ((k, v) :: acc)
  end
  else begin
    expect r '}';
    List.rev ((k, v) :: acc)
  end

and parse_items r acc =
  let v = parse_value r in
  skip_ws r;
  if looking_at r ',' then begin
    r.pos <- r.pos + 1;
    parse_items r (v :: acc)
  end
  else begin
    expect r ']';
    List.rev (v :: acc)
  end

let of_string s =
  let r = { s; pos = 0 } in
  let v = parse_value r in
  skip_ws r;
  if r.pos <> String.length s then fail_at r.pos "trailing garbage";
  v

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_file path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string_pretty j);
      output_char oc '\n')
