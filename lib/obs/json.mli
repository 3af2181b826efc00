(** Minimal JSON document builder, serializer, and reader.

    Deliberately dependency-free (the toolchain image carries no JSON
    library): the observability layer {e writes} JSON — run reports,
    benchmark trajectories, event streams — and the ci tooling reads the
    artifacts back to validate them. Output is strict RFC 8259:
    strings are escaped, and non-finite floats (which JSON cannot
    represent) serialize as [null], matching how the metrics layer uses
    [nan] for "undefined over an empty set". *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Stdlib.Buffer.t -> t -> unit
(** Append the compact rendering. Floats: non-finite ones render as
    [null]; integer-valued ones with [|f| < 1e15] as ["%.1f"] would
    (["3.0"], ["-0.0"]); all others as ["%.17g"], which reads back
    bit-identical. Strings escape ['"'], ['\\'] and bytes below 0x20
    ([\n], [\r], [\t], else [\u00XX]); other bytes pass through. *)

val to_string : t -> string
(** Compact single-line rendering. *)

val to_string_pretty : t -> string
(** Two-space indented rendering (for artifacts meant to be diffed across
    runs, e.g. BENCH.json). *)

val to_file : string -> t -> unit
(** Pretty-print to [path] with a trailing newline. *)

exception Parse_error of string

val of_string : string -> t
(** Parse an RFC 8259 JSON document — the inverse of {!to_string} /
    {!to_string_pretty}, so the store and tooling (the ci bench smoke
    check) can read emitted documents without an external JSON library.
    Numbers without a fraction or exponent parse as [Int] (as [Float]
    when they overflow an [int]), others as [Float]. [\u] escapes decode
    to UTF-8, surrogate pairs to one 4-byte sequence. Raises
    {!Parse_error}, whose message ends in ["at offset N"], on anything
    outside the grammar: a leading ['+'] or zero, a bare ['.'], a lone
    surrogate, an unescaped control byte in a string, trailing input. *)

val of_file : string -> t
(** [of_string] over the file's contents. *)

val member : string -> t -> t option
(** Field lookup; [None] when absent or not an [Obj]. *)
