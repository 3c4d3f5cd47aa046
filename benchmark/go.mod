module seagull/benchmark

go 1.24

require seagull v0.0.0

replace seagull => ../
