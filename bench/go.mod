module viewstags/bench

go 1.21

require viewstags v0.0.0

replace viewstags => ../
