module presence/bench

go 1.24

require presence v0.0.0

replace presence => ../
