(** Warm-startable bounded-variable sparse revised simplex.

    Solves min c·x over the constraints of an {!Lp_problem.t} with the
    problem's column bounds l <= x <= u. Integrality marks are ignored here
    (see {!Ilp}).

    The implementation is a sparse revised simplex:

    {ul
    {- the constraint matrix is held once in CSC form ({!Sparse}) and
       never modified; the basis lives in an {!Lu} factorization extended
       by product-form etas and refactorized periodically, so a pivot
       costs one FTRAN + one BTRAN + O(n) bookkeeping instead of a dense
       O(m·n) tableau sweep;}
    {- a {!Presolve} pass (fixed/empty columns, empty and singleton rows,
       bound tightening) shrinks the model before the first factorization
       and its tightened boxes soundly absorb the per-node bound overrides
       of branch-and-bound re-solves;}
    {- pricing uses devex reference weights with Bland's rule after a
       stall (anti-cycling), and the reduced-cost row is maintained
       incrementally from the gathered pivot row;}
    {- variable bounds live on columns, not rows: the ratio test limits
       steps by both the leaving row and the entering variable's opposite
       bound, and a bound-to-bound move is an O(m) flip with no pivot;}
    {- artificial variables are introduced per row only when the
       all-at-lower-bound start cannot make that row's slack basic, and
       are retired (pinned to [0,0]) after phase 1;}
    {- {!State} keeps the solved tableau, basis factorization and presolve
       alive so branch-and-bound can re-solve under changed column bounds
       with a few dual-simplex pivots instead of a from-scratch primal
       solve.}}

    A hard iteration cap returns {!Iter_limit} instead of silently
    presenting a truncated solve as optimal (callers must not prune
    against such a result — see {!Ilp}). The dense tableau solver this
    replaced survives verbatim as [Dense_simplex] in [test/dense_simplex.ml],
    the qcheck oracle.

    Counters [lp.pivots], [lp.phase1_iters], [lp.bound_flips],
    [lp.iter_limits], [lp.cold_solves] (here), [lp.refactorizations],
    [lp.eta_updates] ({!Lu}), [lp.presolve_cols_removed],
    [lp.presolve_rows_removed] ({!Presolve}) and the [lp.solve] timer are
    registered with {!Rapid_obs} and surface in every JSON artifact. *)

type solution = { objective : float; solution : float array }

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iter_limit
      (** The iteration cap was hit before convergence: the tableau's state
          is feasible-but-not-proven-optimal (primal) or not even feasible
          (dual); its objective is NOT a valid bound. *)

val solve : ?extra:Lp_problem.constr list -> Lp_problem.t -> result
(** [solve ?extra p] solves [p] with optional additional rows. One-shot:
    builds a fresh tableau, runs phase 1 (only if some row needs an
    artificial) and phase 2. *)

(** Persistent solver state for warm-started re-solves under changed
    column bounds (the branch-and-bound hot path). *)
module State : sig
  type t

  val create : ?extra:Lp_problem.constr list -> Lp_problem.t -> t
  (** Capture the problem; nothing is solved yet. The problem's rows and
      bounds are read at the first solve. *)

  val solve_root : t -> result
  (** Cold two-phase solve from the all-slack basis. *)

  val pivots : t -> int
  (** Total simplex pivots this state has performed, cumulative across
      warm re-solves and cold rebuilds. Deterministic for a given problem
      (unlike the process-global [lp.pivots] counter, whose deltas mix in
      concurrent domains' work), so callers can use it as a work budget. *)

  val resolve : t -> bounds:(int * float * float) list -> result * bool
  (** [resolve st ~bounds] re-solves with each listed variable [j] forced
      into [[lo, hi]] (every variable not listed reverts to the problem's
      own bounds). When the previous solve left a dual-feasible tableau,
      only the column bounds and basic values are refreshed (through the
      retained basis factorization) and the dual simplex runs from the
      previous basis; otherwise (or if the dual hits its iteration cap) a
      cold solve is performed. Overrides that stay inside the problem's own
      boxes — the branch-and-bound case — run against the presolved
      tableau; an override escaping its original box forces an unpresolved
      rebuild. The boolean is [true] iff the warm path produced the
      result. *)
end

