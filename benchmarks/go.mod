// The benchmark is a module of its own so that it builds without any
// change to the repository's build file; the replace directive lets it
// import the simulator's internal packages (the import path keeps the
// sbgp/ prefix, which is what Go's internal rule checks).
module sbgp/benchmarks

go 1.22

require sbgp v0.0.0

replace sbgp => ../
