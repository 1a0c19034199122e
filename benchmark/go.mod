module trainbox/benchmark

go 1.22

require trainbox v0.0.0

replace trainbox => ../
