// The host-speed reference of the benchmark.
//
// How fast a virtual CPU runs the program's kind of code swings by more
// than 2x with the load other tenants put on the host: branchy code over
// working sets beyond the CPU caches slows down, while a tight arithmetic
// loop barely does, and the lost speed shows as CPU time, not as steal.
// The benchmark therefore times a fixed reference kernel beside every
// measured step and divides the step's CPU time by the kernel's.

#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

namespace perfbench {

/// Sorts 1.5 M pseudo-random integers and counts 0.5 M pseudo-random keys
/// in a hash map; returns the CPU time (s) this took. It uses only the
/// standard library, so no change to the program moves it.
double CalibrationCpuSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
