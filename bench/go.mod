module atropos/bench

go 1.24

require atropos v0.0.0

replace atropos => ../
