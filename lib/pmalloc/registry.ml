let resolve machine p = Nvm.Pool.of_id machine (Pptr.pool p)
