// The benchmark is a module of its own so that it builds from its own
// directory; it reaches the program through the module one level up.
module saccs/benchmark

go 1.22

require saccs v0.0.0

replace saccs => ../
