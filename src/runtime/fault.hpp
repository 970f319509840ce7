// Deterministic fault injection: named fault points compiled into the
// runtime, solver and serve hot paths, zero-cost until a spec arms them.
//
// Instrumented code calls `fault::point("solver.factorize")` at the places
// an operator wants to be able to break on purpose. Unarmed (the default)
// the call is one relaxed atomic load. Armed — via the MAPS_FAULTS
// environment variable or `arm_from_spec()` — each hit consults the point's
// trigger and fires its action:
//
//   throw        throw fault::FaultInjected (an ordinary MapsError subclass;
//                whatever error handling guards the real failure must handle
//                this one)
//   stall:<ms>   sleep the calling thread <ms> milliseconds, then continue
//                (models a slow disk / contended lock / solver outlier)
//   io           return true from point(); the call site simulates its own
//                natural I/O failure (a failed write(), a short read, a
//                rename error) so the recovery path under test is the real
//                one, not an artificial unwind
//
// Spec grammar (';'-separated entries):
//
//   MAPS_FAULTS="<name>=<action>[@<trigger>][;<name>=<action>...]"
//   action  := throw | io | stall:<ms>
//   trigger := always            fire on every hit (default)
//            | nth:<N>           fire exactly once, on the Nth hit (1-based)
//            | every:<K>         fire on hits K, 2K, 3K, ...
//            | p:<P>[,seed:<S>]  fire with probability P from a per-point
//                                deterministic LCG seeded with S (default 1)
//
// Example: MAPS_FAULTS="solver.factorize=throw@nth:3;journal.append=io@every:5;
// surrogate.forward=stall:20@p:0.1,seed:7". Counters (hits, fires) are kept
// per point and surfaced through `stats()` — the serve wire layer reports
// them in the ServeStats JSON so a chaos run can prove each armed fault
// actually fired.
//
// Registered point names in this repo: solver.factorize, solver.solve,
// solver.iterative, surrogate.forward, registry.load, journal.append,
// journal.compact, manifest.save, http.read, http.write, coalesce.attach,
// jobs.step, jobs.journal.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "math/types.hpp"

namespace maps::runtime::fault {

/// Thrown by `throw`-action fault points. Derived from MapsError so every
/// existing recovery path treats it exactly like the organic failure.
class FaultInjected : public MapsError {
 public:
  explicit FaultInjected(const std::string& what) : MapsError(what) {}
};

struct PointStats {
  std::string name;
  std::uint64_t hits = 0;   // times an armed point() was reached
  std::uint64_t fires = 0;  // times the trigger matched and the action ran
};

/// True when at least one fault point is armed. Inline fast path: the
/// instrumentation macro-equivalent `point()` checks this first.
bool armed();

/// The instrumentation hook. No-op (returns false) when `name` is not
/// armed. Otherwise: counts the hit, evaluates the trigger, and on a fire
/// throws (action `throw`), stalls (action `stall`) or returns true
/// (action `io` — the caller simulates its own I/O failure).
bool point(std::string_view name);

/// Arm every entry of a spec string (see grammar above). Entries add to /
/// overwrite already-armed points of the same name. Throws MapsError on a
/// malformed spec. An empty spec arms nothing.
void arm_from_spec(const std::string& spec);

/// Disarm every point (including MAPS_FAULTS-armed ones) and reset counters.
void disarm_all();

/// Per-point counters of every armed point, name-sorted.
std::vector<PointStats> stats();

/// Sum of fires across all armed points.
std::uint64_t total_fires();

/// RAII spec arming for tests: arms on construction, disarms everything on
/// destruction (counters reset).
class ScopedFaults {
 public:
  explicit ScopedFaults(const std::string& spec) { arm_from_spec(spec); }
  ~ScopedFaults() { disarm_all(); }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
};

}  // namespace maps::runtime::fault
