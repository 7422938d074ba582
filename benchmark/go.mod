module mlnclean/benchmark

go 1.23

require mlnclean v0.0.0

replace mlnclean => ../
