module videodrift/bench

go 1.24

require videodrift v0.0.0

replace videodrift => ../
