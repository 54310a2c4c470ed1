module webmlgo/bench

go 1.22

require webmlgo v0.0.0

replace webmlgo => ../
