module dwmaxerr/bench

go 1.24

require dwmaxerr v0.0.0

replace dwmaxerr => ../
