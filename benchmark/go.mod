module pac/benchmark

go 1.22

require pac v0.0.0

replace pac => ../
